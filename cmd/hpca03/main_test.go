package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"selthrottle/internal/golden"
)

// update regenerates testdata/stdout.tsv from the current code. Note every
// regeneration in CHANGES.md.
//
//	go test ./cmd/hpca03 -run Golden -update
var update = flag.Bool("update", false, "rewrite testdata/stdout.tsv from the current code")

const stdoutHeader = "# n\tsha256 of `hpca03 -exp all -n <n>` stdout (equals perfbench/golden/stdout.tsv's row)\n"

// bin is the hpca03 binary TestMain builds for the tests to exec.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hpca03-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "hpca03")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestStdoutGolden pins the whole reproduction end to end: the SHA-256 of
// `hpca03 -exp all -n 2000` stdout, every table and figure the command
// prints, must equal testdata/stdout.tsv's row.
func TestStdoutGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-exp", "all", "-n", "2000")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("hpca03 -exp all -n 2000: %v\n%s", err, stderr.Bytes())
	}
	golden.Check(t, "testdata/stdout.tsv", stdoutHeader, []string{"2000\t" + golden.Sum(stdout.Bytes())}, *update)
}

// TestUnknownFlagExitsUsage: an unknown flag, including a retired one, is a
// usage error and exits 2.
func TestUnknownFlagExitsUsage(t *testing.T) {
	for _, f := range []string{"-legacyfrontend", "-nosuchflag"} {
		err := exec.Command(bin, f, "-exp", "table3").Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("hpca03 %s: %v, want exit status 2", f, err)
		}
	}
}
