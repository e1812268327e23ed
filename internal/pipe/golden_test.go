package pipe

import (
	"flag"
	"fmt"
	"testing"

	"selthrottle/internal/core"
	"selthrottle/internal/golden"
	"selthrottle/internal/power"
	"selthrottle/internal/xrand"
)

// update regenerates testdata/trials.tsv from the current code. Note every
// regeneration in CHANGES.md.
//
//	go test ./internal/pipe -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/trials.tsv from the current code")

const trialsFile = "testdata/trials.tsv"

const trialsHeader = `# SHA-256 of a pipeline's end state (stateDigest) per randomized trial.
# seed	trial	profile/policy/depth	state sha256
#   seeds 0xe90c and 0x5005 draw 12 trials each (randomTrials); every trial
#   runs 6000 instructions, StuckCycles 20000.
#   stragglers: go/baseline/14 drained with wrong-path work in flight (drainWithStragglers).
`

// trial is one randomized machine shape.
type trial struct {
	bench  string
	policy core.Policy
	depth  int
}

// randomTrials replays the 12 trial shapes drawn from seed. Seed 0xE90C
// spends two more draws per trial, which once chose the front end and the
// issue stage its trial ran on, so its shapes stay those of the table.
func randomTrials(seed uint64) []trial {
	rng := xrand.New(seed)
	profiles := []string{"go", "gcc", "twolf", "parser"}
	policies := []core.Policy{
		core.Baseline(),
		core.Selective("c2", core.Spec{Fetch: core.RateQuarter, NoSelect: true}, core.Spec{Fetch: core.RateStall}),
		core.Selective("dec", core.Spec{Fetch: core.RateHalf, Decode: core.RateQuarter}, core.Spec{Decode: core.RateStall}),
		core.PipelineGating(2),
	}
	trials := make([]trial, 12)
	for i := range trials {
		trials[i] = trial{
			bench:  profiles[rng.Intn(len(profiles))],
			policy: policies[rng.Intn(len(policies))],
			depth:  6 + 2*rng.Intn(12),
		}
		if seed == 0xE90C {
			rng.Intn(2)
			rng.Intn(4)
		}
	}
	return trials
}

// stateDigest digests everything the randomized trials compare: the
// statistics, the meter's per-unit useful and wasted totals, and the pool,
// checkpoint and epoch accounting.
func stateDigest(pl *Pipeline, meter *power.Meter) string {
	allocs, reuses := pl.PoolStats()
	leased, capacity, hw := pl.walker.CkptStats()
	open, _, ehw := pl.EpochStats()
	return golden.Sum(fmt.Appendf(nil, "%+v\n%+v\npool %d %d\nckpt %d %d %d\nepochs %d %d",
		pl.Stats, *meter, allocs, reuses, leased, capacity, hw, open, ehw))
}

// runTrial runs one trial and digests its end state.
func runTrial(t *testing.T, tr trial) string {
	pl, meter := buildLedger(t, tr.bench, tr.policy, func(c *Config) {
		c.SetDepth(tr.depth)
		c.StuckCycles = 20000
	})
	pl.Run(6000)
	if err := pl.CheckInvariants(); err != nil {
		t.Fatalf("%s/%s/%d: %v", tr.bench, tr.policy.Name, tr.depth, err)
	}
	return stateDigest(pl, meter)
}

// drainWithStragglers runs go under the baseline to a drain point where
// wrong-path work is in flight. The instruction stream is deterministic, so
// the point is the same on every run.
func drainWithStragglers(pl *Pipeline) {
	target := uint64(20000)
	pl.Run(target)
	for tries := 0; tries < 4000 && !hasWrongPathInFlight(pl); tries++ {
		target += 25
		pl.Run(target)
	}
}

// trialRows runs seed's trials and returns their table rows.
func trialRows(t *testing.T, seed uint64) []string {
	var rows []string
	for i, tr := range randomTrials(seed) {
		rows = append(rows, fmt.Sprintf("%#x\t%d\t%s/%s/%d\t%s", seed, i, tr.bench, tr.policy.Name, tr.depth, runTrial(t, tr)))
	}
	return rows
}

// TestRandomizedTrialsGolden runs every row of testdata/trials.tsv once and
// compares its state digest. The table was first generated while the
// pipeline still carried its reference implementations (the scan issue
// stage, the two-ring front end and the per-instruction power ledger) and
// the walker its float-threshold form; a row was written only when the fast
// path, each reference alone and all of them together gave the same digest.
// A failure is a behaviour change: a machine shape now ends in a different
// state.
func TestRandomizedTrialsGolden(t *testing.T) {
	rows := append(trialRows(t, 0xE90C), trialRows(t, 0x5005)...)
	pl, meter := buildLedger(t, "go", core.Baseline(), nil)
	drainWithStragglers(pl)
	rows = append(rows, "stragglers\t-\tgo/baseline/14\t"+stateDigest(pl, meter))
	golden.Check(t, trialsFile, trialsHeader, rows, *update)
}

// TestEpochLedgerMatchesLegacyRandomized checks the 0xE90C rows on their
// own: random profiles, policies and depths whose statistics, per-unit
// useful and wasted totals, and pool, checkpoint and epoch accounting were
// written only when the epoch ledgers agreed with the per-instruction
// ledger they replaced. A fold that gains or loses one event moves the
// per-unit wasted totals and so the digest.
func TestEpochLedgerMatchesLegacyRandomized(t *testing.T) {
	golden.CheckSubset(t, trialsFile, trialRows(t, 0xE90C))
}

// TestFusedSquashAccountingMatchesLegacy checks the 0x5005 rows on their
// own: random shapes whose end state was written only when the fused front
// end agreed with the two-ring front end. A squash-order change shows in
// the checkpoint high-water (handles recycle LIFO) and in the per-unit
// wasted totals.
func TestFusedSquashAccountingMatchesLegacy(t *testing.T) {
	golden.CheckSubset(t, trialsFile, trialRows(t, 0x5005))
}
