package prog

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"testing"

	"selthrottle/internal/golden"
	"selthrottle/internal/xrand"
)

// update regenerates testdata/walkstream.tsv from the current code. Note
// every regeneration in CHANGES.md.
//
//	go test ./internal/prog -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/walkstream.tsv from the current code")

const walkStreamFile = "testdata/walkstream.tsv"

const walkStreamHeader = `# SHA-256 of a walker's instruction stream per profile (walkStream).
# profile	stream sha256
#   12000 correct-path steps steered by xrand.New(0xF00D ^ seed): 20% of
#   branches mispredicted, each followed by a wrong-path excursion of
#   0-29 instructions and a recovery from the branch's checkpoint.
`

// walkStream drives w through the fixed steering schedule of p and digests
// every produced DynInst, field for field (checkpoint handles included, so
// lease order is pinned), and the arena accounting at the end. A walker that
// leaks a lease fails here.
func walkStream(t *testing.T, p Profile, w *Walker) string {
	h := sha256.New()
	rng := xrand.New(0xF00D ^ p.Seed)
	var d DynInst
	step := func() {
		w.Next(&d)
		fmt.Fprintf(h, "%+v %#x\n", d, w.NextPC())
	}
	for i := 0; i < 12000; i++ {
		step()
		if d.BrID == NoBranch {
			continue
		}
		pred := d.Taken
		if rng.Bool(0.2) {
			pred = !pred
		}
		w.Steer(pred)
		if pred == d.Taken {
			w.Release(&d)
			continue
		}
		// Wrong path: walk a bounded excursion, then recover from the
		// mispredicted branch's checkpoint.
		br := d
		for k := rng.Intn(30); k > 0; k-- {
			step()
			if d.BrID != NoBranch {
				w.Steer(d.Taken)
				w.Release(&d)
			}
		}
		w.Recover(&br)
	}
	leased, capacity, hw := w.CkptStats()
	if leased != 0 {
		t.Errorf("%s: %d checkpoint leases leaked", p.Name, leased)
	}
	if hw > 4 {
		t.Errorf("%s: checkpoint high-water %d, at most 2 branches are ever outstanding here", p.Name, hw)
	}
	if capacity > hw {
		t.Errorf("%s: arena capacity %d exceeds high-water %d", p.Name, capacity, hw)
	}
	fmt.Fprintf(h, "ckpt %d %d %d\n", leased, capacity, hw)
	return hex.EncodeToString(h.Sum(nil))
}

// TestWalkerStreamGolden compares every profile's walkStream digest with
// testdata/walkstream.tsv. The table was first generated while the walker
// still carried its float-threshold reference implementation, and a row was
// written only when both implementations gave the same digest.
func TestWalkerStreamGolden(t *testing.T) {
	var rows []string
	for _, p := range Profiles() {
		rows = append(rows, p.Name+"\t"+walkStream(t, p, NewWalker(Generate(p))))
	}
	golden.Check(t, walkStreamFile, walkStreamHeader, rows, *update)
}
