package sim

import (
	"fmt"
	"sync"
	"testing"

	"selthrottle/internal/core"
	"selthrottle/internal/golden"
	"selthrottle/internal/prog"
	"selthrottle/internal/store"
)

// Golden result digests. A Result is a pure function of its (Config,
// Profile), so the SHA-256 of its store codec bytes — everything a Result
// carries but the Config and benchmark name it is looked up by — pins a
// simulation absolutely. testdata/results.tsv holds that digest for:
//
//   - every EnumerateGrid point of `-exp all` and `-exp ablation` at -n 2000
//     (the `all` rows equal perfbench/golden/points.tsv's n=2000 codec
//     digests);
//   - the reference configurations: every profile under the baseline and C2,
//     {go, gzip, twolf} under every referencePolicies entry, and every
//     referenceShapes entry.
//
// The table was first generated while the simulator still carried
// reference implementations of its fast paths (a full-window issue scan, a
// two-ring front end, a per-instruction power ledger and a float-threshold
// walker); the generator checked every row under the fast path, each
// reference alone and all of them together, and wrote a row only when all
// six agreed. Those references are gone, and the table now carries their
// verdicts.
//
//	go test ./internal/sim -run TestResultDigestsGolden -update
const resultsFile = "testdata/results.tsv"

const resultsHeader = `# SHA-256 of store.EncodeEntry(resultEntry(&res)) per simulation point.
# set	point	codec sha256
#   all, ablation: EnumerateGrid(set, "", Options{Instructions: 2000}),
#     point = index/policy/estimator/profile/depth/total predictor+estimator KB
#   profiles: every profile under baseline and C2, 12000 measured + 3000 warmup
#   policies: go, gzip, twolf under referencePolicies, 10000 + 2500
#   shapes: go under C2 with each referenceShapes entry, 8000 + 2000
`

// referencePolicies are the experiment shapes that reach every stage's code
// paths: plain selection, no-select barriers (stall accounting), decode and
// fetch throttling interplay, gating, and the two oracle limit studies.
func referencePolicies() []Experiment {
	c2 := BestExperiment()
	b5, _ := ExperimentByID("B5")
	return []Experiment{
		{ID: "baseline", Policy: core.Baseline(), Estimator: EstBPRU},
		c2,
		b5,
		pipelineGating("PG"),
		{ID: "oracle-select", Policy: core.Baseline(), Estimator: EstBPRU, Oracle: core.OracleSelect},
		{ID: "oracle-fetch", Policy: core.Baseline(), Estimator: EstBPRU, Oracle: core.OracleFetch},
	}
}

// referenceShapes are structural corner cases: the minimum and maximum
// pipe depths, fetch groups straddling the decode boundary (narrow fetch or
// decode), single-taken truncation, a tiny window (constant back-pressure
// and flushes), perfect disambiguation (no store-queue walk) and a narrow
// issue width (selection exhausts the width nearly every cycle).
var referenceShapes = []struct {
	name  string
	apply func(*Config)
}{
	{"depth6", func(c *Config) { c.Pipe.SetDepth(6) }},
	{"depth28", func(c *Config) { c.Pipe.SetDepth(28) }},
	{"fetch4", func(c *Config) { c.Pipe.FetchWidth = 4 }},
	{"decode2", func(c *Config) { c.Pipe.DecodeWidth = 2 }},
	{"fetch4-decode2", func(c *Config) { c.Pipe.FetchWidth = 4; c.Pipe.DecodeWidth = 2 }},
	{"fetch8-decode3-issue5", func(c *Config) { c.Pipe.FetchWidth = 8; c.Pipe.DecodeWidth = 3; c.Pipe.IssueWidth = 5 }},
	{"taken1", func(c *Config) { c.Pipe.MaxTakenPerCycle = 1 }},
	{"window16", func(c *Config) { c.Pipe.WindowSize = 16; c.Pipe.LSQSize = 8 }},
	{"perfect-disambiguation", func(c *Config) { c.Pipe.PerfectDisambiguation = true }},
	{"issue2", func(c *Config) { c.Pipe.IssueWidth = 2 }},
}

// goldenPoint is one row of the results table.
type goldenPoint struct {
	set, name string
	g         GridPoint
}

// gridPoints lists the table's `all` and `ablation` rows in order.
func gridPoints(t *testing.T) []goldenPoint {
	t.Helper()
	var pts []goldenPoint
	for _, exp := range pointKeyGrids {
		grid, err := EnumerateGrid(exp, "", Options{Instructions: pointKeyN})
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range grid {
			name := fmt.Sprintf("%d/%s/%s/%s/%d/%d", i, g.Cfg.Policy.Name, g.Cfg.Estimator,
				g.Profile.Name, g.Cfg.Pipe.Depth(), (g.Cfg.PredBytes+g.Cfg.ConfBytes)/1024)
			pts = append(pts, goldenPoint{exp, name, g})
		}
	}
	return pts
}

// referencePoints lists the table's reference rows (sets profiles,
// policies and shapes) in order; they follow the grid rows.
func referencePoints() []goldenPoint {
	var pts []goldenPoint
	at := func(instructions, warmup uint64, e Experiment) Config {
		cfg := Default()
		cfg.Instructions, cfg.Warmup = instructions, warmup
		return e.Apply(cfg)
	}
	baseline := Experiment{ID: "baseline", Policy: core.Baseline(), Estimator: EstBPRU}
	for _, p := range prog.Profiles() {
		for _, e := range []Experiment{baseline, BestExperiment()} {
			pts = append(pts, goldenPoint{"profiles", p.Name + "/" + e.ID, GridPoint{at(12000, 3000, e), p}})
		}
	}
	for _, name := range []string{"go", "gzip", "twolf"} {
		p, _ := prog.ProfileByName(name)
		for _, e := range referencePolicies() {
			pts = append(pts, goldenPoint{"policies", name + "/" + e.ID, GridPoint{at(10000, 2500, e), p}})
		}
	}
	goProfile, _ := prog.ProfileByName("go")
	for _, s := range referenceShapes {
		cfg := at(8000, 2000, BestExperiment())
		cfg.Pipe.StuckCycles = 20000 // fail fast if a shape wedges the machine
		s.apply(&cfg)
		pts = append(pts, goldenPoint{"shapes", "go/" + s.name, GridPoint{cfg, goProfile}})
	}
	return pts
}

// resultDigest runs one point directly (no result cache) and digests the
// codec bytes of its Result.
func resultDigest(r *Runner, g GridPoint) string {
	res := r.Run(g.Cfg, g.Profile)
	e := resultEntry(&res)
	return golden.Sum(store.EncodeEntry(&e))
}

// referenceDigests runs every reference row once per test binary and maps
// "set\tpoint" to its digest. TestResultDigestsGolden and the reference
// tests below share it, so no reference row is simulated twice.
var referenceDigests = sync.OnceValue(func() map[string]string {
	pts := referencePoints()
	digests := make([]string, len(pts))
	runJobs(len(pts), func(r *Runner, i int) {
		digests[i] = resultDigest(r, pts[i].g)
	})
	m := make(map[string]string, len(pts))
	for i, p := range pts {
		m[p.set+"\t"+p.name] = digests[i]
	}
	return m
})

// TestResultDigestsGolden runs every row of testdata/results.tsv once and
// compares its digest. A failure is a behaviour change: the point now
// simulates to a different Result.
func TestResultDigestsGolden(t *testing.T) {
	pts := gridPoints(t)
	rows := make([]string, len(pts))
	runJobs(len(pts), func(r *Runner, i int) {
		rows[i] = pts[i].set + "\t" + pts[i].name + "\t" + resultDigest(r, pts[i].g)
	})
	ref := referenceDigests()
	for _, p := range referencePoints() {
		key := p.set + "\t" + p.name
		rows = append(rows, key+"\t"+ref[key])
	}
	golden.Check(t, resultsFile, resultsHeader, rows, *update)
}

// setNames lists the point names of one reference set, in table order.
func setNames(set string) []string {
	var names []string
	for _, p := range referencePoints() {
		if p.set == set {
			names = append(names, p.name)
		}
	}
	return names
}

// checkReferenceRows compares the named rows of one reference set with the
// table.
func checkReferenceRows(t *testing.T, set string, names ...string) {
	t.Helper()
	ref := referenceDigests()
	rows := make([]string, len(names))
	for i, n := range names {
		key := set + "\t" + n
		d, ok := ref[key]
		if !ok {
			t.Fatalf("%s/%s is not a reference row", set, n)
		}
		rows[i] = key + "\t" + d
	}
	golden.CheckSubset(t, resultsFile, rows)
}

// The tests below each pin the rows one reference implementation was
// compared on before it was deleted: the full-window issue scan, the
// float-threshold walker, the two-ring front end and the per-instruction
// power ledger. A row was written only when the fast path and every
// reference, alone and together, gave its digest, so a row that still
// matches means the fast path still gives that reference's Result.

// TestEventIssueMatchesScanAllProfiles: the event-driven issue stage gives
// the scan's Result on every profile under the baseline and C2.
func TestEventIssueMatchesScanAllProfiles(t *testing.T) {
	checkReferenceRows(t, "profiles", setNames("profiles")...)
}

// TestEventIssueMatchesScanAllPolicies: the same on go, gzip and twolf
// under every referencePolicies entry.
func TestEventIssueMatchesScanAllPolicies(t *testing.T) {
	checkReferenceRows(t, "policies", setNames("policies")...)
}

// TestEventIssueMatchesScanStressShapes: the issue stage's corner cases — a
// deep pipe (long latencies, wheel clamping), a tiny window (constant
// back-pressure and flushes), perfect disambiguation (no store-queue walk)
// and a narrow issue width (selection exhausts the width every cycle).
func TestEventIssueMatchesScanStressShapes(t *testing.T) {
	checkReferenceRows(t, "shapes", "go/depth28", "go/window16", "go/perfect-disambiguation", "go/issue2")
}

// TestFastWalkMatchesLegacyAllProfiles: the integer-threshold walker gives
// the float-threshold walker's Result on every profile under the baseline
// and C2.
func TestFastWalkMatchesLegacyAllProfiles(t *testing.T) {
	checkReferenceRows(t, "profiles", setNames("profiles")...)
}

// TestFastWalkMatchesLegacyAllPolicies: the same on go, gzip and twolf
// under every referencePolicies entry.
func TestFastWalkMatchesLegacyAllPolicies(t *testing.T) {
	checkReferenceRows(t, "policies", setNames("policies")...)
}

// TestFusedFrontEndMatchesLegacyAllProfiles: the fused front-end delay line
// gives the two-ring front end's Result on every profile under the baseline
// and C2.
func TestFusedFrontEndMatchesLegacyAllProfiles(t *testing.T) {
	checkReferenceRows(t, "profiles", setNames("profiles")...)
}

// TestFusedFrontEndMatchesLegacyAllPolicies: the same on go, gzip and twolf
// under every referencePolicies entry.
func TestFusedFrontEndMatchesLegacyAllPolicies(t *testing.T) {
	checkReferenceRows(t, "policies", setNames("policies")...)
}

// TestFusedFrontEndMatchesLegacyStressShapes: the front end's corner cases
// — the minimum and maximum depths, groups straddling the decode boundary
// (narrow fetch or decode), single-taken truncation and a tiny window
// (constant back-pressure into the delay line).
func TestFusedFrontEndMatchesLegacyStressShapes(t *testing.T) {
	checkReferenceRows(t, "shapes", "go/depth6", "go/depth28", "go/fetch4", "go/decode2",
		"go/fetch8-decode3-issue5", "go/taken1", "go/window16")
}

// TestFrontEndWalkerModeCross: twolf under C2, the row every pairing of the
// two front ends with the two walkers gave.
func TestFrontEndWalkerModeCross(t *testing.T) {
	checkReferenceRows(t, "policies", "twolf/C2")
}

// TestEpochLedgerMatchesLegacyAllProfiles: the epoch-ledger power
// attribution gives the per-instruction ledger's Result — the same per-unit
// useful and wasted totals — on every profile under the baseline and C2.
func TestEpochLedgerMatchesLegacyAllProfiles(t *testing.T) {
	checkReferenceRows(t, "profiles", setNames("profiles")...)
}

// TestEpochLedgerMatchesLegacyAllPolicies: the same on go, gzip and twolf
// under every referencePolicies entry.
func TestEpochLedgerMatchesLegacyAllPolicies(t *testing.T) {
	checkReferenceRows(t, "policies", setNames("policies")...)
}

// TestEpochLedgerMatchesLegacyStressShapes: the epoch machinery's corner
// cases — the deepest pipe (maximal squash depth), the minimum depth
// (epochs retiring almost at once), a tiny window (epochs folding every few
// cycles), narrow widths (epochs straddling the decode boundary) and
// single-taken truncation (many short groups per epoch).
func TestEpochLedgerMatchesLegacyStressShapes(t *testing.T) {
	checkReferenceRows(t, "shapes", "go/depth28", "go/depth6", "go/window16", "go/fetch4-decode2",
		"go/fetch8-decode3-issue5", "go/taken1")
}

// TestLedgerFrontEndModeCross: twolf under C2, the row every pairing of the
// two ledgers with the two front ends gave.
func TestLedgerFrontEndModeCross(t *testing.T) {
	checkReferenceRows(t, "policies", "twolf/C2")
}
