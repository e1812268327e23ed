package sim

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// updatePointKeys regenerates testdata/pointkeys.tsv from the current key
// derivation. Regenerate only when the grid or the keys change on purpose:
// changed keys re-address every persisted store and need a diskKeySchema
// bump in the same change. Note every regeneration in CHANGES.md.
//
//	go test ./internal/sim -run TestPointKeysGolden -update
var updatePointKeys = flag.Bool("update", false, "rewrite testdata/pointkeys.tsv from the current key derivation")

const pointKeysFile = "testdata/pointkeys.tsv"

// pointKeyGrids are the selections and scale the golden key table spans:
// every profile, policy, estimator, depth and table size hpca03 runs.
var pointKeyGrids = []string{"all", "ablation"}

const pointKeyN = 2000

// pointKeyRows renders one row per EnumerateGrid point of pointKeyGrids at
// -n pointKeyN, in enumeration order.
func pointKeyRows(t *testing.T) []string {
	t.Helper()
	var rows []string
	for _, exp := range pointKeyGrids {
		pts, err := EnumerateGrid(exp, "", Options{Instructions: pointKeyN})
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range pts {
			rows = append(rows, strings.Join([]string{
				exp,
				strconv.Itoa(i),
				g.Cfg.Policy.Name,
				string(g.Cfg.Estimator),
				g.Profile.Name,
				strconv.Itoa(g.Cfg.Pipe.Depth()),
				strconv.Itoa((g.Cfg.PredBytes + g.Cfg.ConfBytes) / 1024),
				g.Key().String(),
			}, "\t"))
		}
	}
	return rows
}

const pointKeysHeader = "# exp\tindex\tpolicy\testimator\tprofile\tdepth\tkb\tkey"

// TestPointKeysGolden pins the disk tier's content addresses absolutely:
// every grid point of `hpca03 -exp all` and `-exp ablation` at -n 2000 must
// key to exactly the SHA-256 recorded in testdata/pointkeys.tsv. A mismatch
// means every existing store went cold (or worse, that two points now
// collide), so the key derivation changed without a schema bump.
func TestPointKeysGolden(t *testing.T) {
	rows := pointKeyRows(t)
	if *updatePointKeys {
		var b bytes.Buffer
		fmt.Fprintf(&b, "%s\n", pointKeysHeader)
		for _, r := range rows {
			fmt.Fprintf(&b, "%s\n", r)
		}
		if err := os.MkdirAll(filepath.Dir(pointKeysFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pointKeysFile, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), pointKeysFile)
		return
	}
	f, err := os.Open(pointKeysFile)
	if err != nil {
		t.Fatalf("%v (see updatePointKeys before regenerating with -update)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(rows) && i < len(want); i++ {
		if rows[i] == want[i] {
			continue
		}
		got, exp := strings.Split(rows[i], "\t"), strings.Split(want[i], "\t")
		if len(got) == len(exp) && strings.Join(got[:len(got)-1], "\t") == strings.Join(exp[:len(exp)-1], "\t") {
			t.Errorf("point %s: key %s, want %s", strings.Join(got[:len(got)-1], "/"), got[len(got)-1], exp[len(exp)-1])
		} else {
			t.Errorf("row %d: got point %q, want %q (grid enumeration changed)", i, rows[i], want[i])
		}
	}
	if len(rows) != len(want) {
		t.Errorf("%d grid points, golden table has %d", len(rows), len(want))
	}
}
