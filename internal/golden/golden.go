// Package golden checks tier-1 tests' output against checked-in tables.
//
// A table is tab-separated text: comment lines start with '#', and each row
// is a set of fields that name an input followed by one last field, the
// SHA-256 the simulator produced for it. The simulator is a pure function of
// its inputs, so a row never changes unless the code's behaviour does.
// Tests regenerate their table with `go test <pkg> -run Golden -update`, and
// every regeneration gets a line in CHANGES.md saying why the output moved.
package golden

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Sum returns the hex SHA-256 of b, the digest column of a row.
func Sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// Check compares rows with the table at path, in order. With update set it
// rewrites the table instead, header first (the header should say what the
// columns are and how the rows were made).
func Check(t testing.TB, path, header string, rows []string, update bool) {
	t.Helper()
	if update {
		var b bytes.Buffer
		b.WriteString(header)
		for _, r := range rows {
			b.WriteString(r)
			b.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(rows), path)
		return
	}
	want, err := read(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update, and note why in CHANGES.md)", err)
	}
	for i := 0; i < len(rows) && i < len(want); i++ {
		if rows[i] == want[i] {
			continue
		}
		gn, gd := split(rows[i])
		wn, wd := split(want[i])
		if gn == wn {
			t.Errorf("%s: digest %s, want %s", strings.ReplaceAll(gn, "\t", "/"), gd, wd)
		} else {
			t.Errorf("row %d: got %q, want %q (the row set changed)", i, rows[i], want[i])
		}
	}
	if len(rows) != len(want) {
		t.Errorf("%d rows, %s has %d", len(rows), path, len(want))
	}
}

// CheckSubset compares rows with the same-named rows of the table at path,
// in any order: each row must be in the table with the same digest. Tests
// that pin one slice of a table use it; the test that regenerates the table
// checks all of it with Check.
func CheckSubset(t testing.TB, path string, rows []string) {
	t.Helper()
	want, err := read(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update, and note why in CHANGES.md)", err)
	}
	byName := make(map[string]string, len(want))
	for _, w := range want {
		n, d := split(w)
		byName[n] = d
	}
	for _, r := range rows {
		n, d := split(r)
		wd, ok := byName[n]
		switch {
		case !ok:
			t.Errorf("%s: no such row in %s", strings.ReplaceAll(n, "\t", "/"), path)
		case d != wd:
			t.Errorf("%s: digest %s, want %s", strings.ReplaceAll(n, "\t", "/"), d, wd)
		}
	}
}

// split separates a row's name fields from its digest.
func split(row string) (name, digest string) {
	i := strings.LastIndexByte(row, '\t')
	if i < 0 {
		return "", row
	}
	return row[:i], row[i+1:]
}

func read(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			rows = append(rows, line)
		}
	}
	return rows, sc.Err()
}
