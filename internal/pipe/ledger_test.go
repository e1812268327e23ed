package pipe

import (
	"testing"

	"selthrottle/internal/bpred"
	"selthrottle/internal/conf"
	"selthrottle/internal/core"
	"selthrottle/internal/power"
	"selthrottle/internal/prog"
)

// buildLedger constructs a pipeline over a named profile with an explicit
// config shape (the ledger tests' analogue of build).
func buildLedger(t testing.TB, bench string, policy core.Policy, shape func(*Config)) (*Pipeline, *power.Meter) {
	t.Helper()
	p, ok := prog.ProfileByName(bench)
	if !ok {
		t.Fatalf("unknown profile %q", bench)
	}
	program := prog.Generate(p)
	w := prog.NewWalker(program)
	cfg := Default()
	if shape != nil {
		shape(&cfg)
	}
	est := conf.Estimator(conf.NewBPRU(4 << 10))
	if policy.Gating {
		est = conf.NewJRS(4<<10, 12)
	}
	meter := &power.Meter{}
	return New(cfg, w, bpred.NewGshare(8<<10), est, core.NewController(policy), meter), meter
}

// TestEpochInvariantsUnderStress steps flush-heavy shapes, validating the
// epoch invariants (ring ordering and per-instruction epoch bindings) every
// few cycles, mid-flight rather than only at a drained run end.
func TestEpochInvariantsUnderStress(t *testing.T) {
	c2 := core.Selective("c2",
		core.Spec{Fetch: core.RateQuarter, NoSelect: true},
		core.Spec{Fetch: core.RateStall})
	for _, depth := range []int{6, 28} {
		pl, _ := buildLedger(t, "go", c2, func(c *Config) { c.SetDepth(depth) })
		for step := 0; step < 9000; step++ {
			pl.Step()
			if step%7 == 0 {
				if err := pl.CheckInvariants(); err != nil {
					t.Fatalf("depth=%d cycle %d: %v", depth, step, err)
				}
			}
		}
		if pl.Stats.Committed == 0 {
			t.Fatalf("depth=%d: no progress under stress", depth)
		}
	}
}

// hasWrongPathInFlight reports whether any in-flight (fetched, uncommitted,
// unsquashed) instruction carries the wrong-path mark.
func hasWrongPathInFlight(pl *Pipeline) bool {
	for i := 0; i < pl.frontQ.Len(); i++ {
		if pl.frontQ.At(i).d.WrongPath {
			return true
		}
	}
	for i := 0; i < pl.window.Len(); i++ {
		if pl.window.At(i).d.WrongPath {
			return true
		}
	}
	return false
}

// TestWrongPathStragglersStayUseful pins the tail subtlety of the epoch
// design: wrong-path instructions still in flight when a run drains were
// never squashed, so their events must stay in the useful pool — epochs fold
// at actual squash only, never eagerly on the WrongPath mark. The run is
// driven to a drain point with wrong-path work in flight; CheckInvariants
// proves every straggler is bound to an open epoch, and a straggler's open
// ledger must still hold events (at minimum its I-cache access). The meter
// totals at that point are pinned by the stragglers row of
// testdata/trials.tsv.
func TestWrongPathStragglersStayUseful(t *testing.T) {
	pl, _ := buildLedger(t, "go", core.Baseline(), nil)
	drainWithStragglers(pl)
	if !hasWrongPathInFlight(pl) {
		t.Fatal("drain point has no wrong-path stragglers; the tail case was not exercised")
	}
	if err := pl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	straggler := false
	for _, q := range []*ring[*inst]{pl.window, pl.frontQ} {
		for i := 0; i < q.Len() && !straggler; i++ {
			in := q.At(i)
			straggler = in.d.WrongPath && pl.epochBuf[in.epoch].led[power.UnitICache] > 0
		}
	}
	if !straggler {
		t.Error("no in-flight wrong-path instruction's epoch holds events; the useful-tail property was not exercised")
	}
}

// TestEpochRingFootprint pins the epoch arena's footprint the way the pool
// and checkpoint tests pin theirs: the ring is sized once from the machine's
// in-flight capacity, the open count and high-water mark stay within it
// through squash-heavy runs, and Reset restores the single base epoch.
func TestEpochRingFootprint(t *testing.T) {
	pl, _ := buildLedger(t, "go", core.Baseline(), func(c *Config) { c.SetDepth(28) })
	pl.Run(30000)
	open, capacity, hw := pl.EpochStats()
	if wantCap := pl.fetchCap + pl.decodeCap + pl.cfg.WindowSize + 2; capacity != wantCap {
		t.Errorf("epoch ring capacity %d, in-flight bound implies %d", capacity, wantCap)
	}
	if open < 1 || open > capacity || hw > capacity {
		t.Errorf("epoch accounting out of bounds: open %d, hw %d, capacity %d", open, hw, capacity)
	}
	if hw < 2 {
		t.Errorf("high-water %d: the run never had concurrent epochs", hw)
	}
	pl.Reset(pl.walker, pl.pred, pl.est, pl.ctrl, pl.meter)
	if open, _, hw := pl.EpochStats(); open != 1 || hw != 1 {
		t.Errorf("after Reset: open %d, hw %d, want the single base epoch", open, hw)
	}
}
