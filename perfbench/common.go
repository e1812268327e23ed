package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"selthrottle/internal/prog"
)

// Scales. The sweeps run the paper's grid at sweepN instructions per
// point; serve-mixed reads a grid filled at serveN and computes the unstored
// grids at serveN+1 .. serveN+computeGrids. The benchmark's own test runs
// every correctness check at serveN.
const (
	sweepN       = 10000
	serveN       = 2000
	computeGrids = 4
)

// execTimeout bounds any one driver process, well inside the run's limit.
const execTimeout = 90 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a workload run's result before printing.
type outcome struct {
	attempted, failed int
	errs              []error // correctness failures, each naming its operation
	metrics           map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

// fail records failed operations and the reason.
func (o *outcome) fail(ops int, err error) {
	o.failed += ops
	o.errs = append(o.errs, err)
}

// bench holds what every workload needs: the built drivers, a scratch
// directory inside the checkout, and the golden outputs.
type bench struct {
	bin  string
	tmp  string
	gold *golden
}

// tempDir makes a fresh directory under the bench's scratch space.
func (b *bench) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(b.tmp, prefix)
}

// proc is one finished driver process.
type proc struct {
	stdout, stderr []byte
	wall           time.Duration
	maxRSSKB       int64 // max RSS of the process and its waited-for children
	code           int
}

// execDriver runs one driver binary to completion with extra environment.
func (b *bench) execDriver(env []string, name string, args ...string) (proc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), execTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(b.bin, name), args...)
	cmd.Env = append(os.Environ(), env...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	r := proc{stdout: out.Bytes(), stderr: errb.Bytes(), wall: time.Since(start)}
	if cmd.ProcessState == nil {
		return r, fmt.Errorf("%s: %v", name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.maxRSSKB = ru.Maxrss
	}
	r.code = cmd.ProcessState.ExitCode()
	var exitErr *exec.ExitError
	if err != nil && !errors.As(err, &exitErr) {
		return r, fmt.Errorf("%s: %v", name, err)
	}
	if ctx.Err() != nil {
		return r, fmt.Errorf("%s: killed after %v", name, execTimeout)
	}
	return r, nil
}

// generateProfiles builds every benchmark program, the set-up cost every
// sweep pays before its first simulation.
func generateProfiles() {
	for _, p := range prog.Profiles() {
		prog.Generate(p)
	}
}

// simInsts is the simulated instructions per point at n (measured plus the
// default n/4 warmup).
func simInsts(n uint64) float64 { return float64(n + n/4) }

// median of xs (xs is sorted in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile of xs at q by linear interpolation between closest ranks (xs is
// sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// timeMedian runs f reps times and returns the median wall time. Each
// rep starts after a garbage collection, so earlier work's garbage does not
// land in its time.
func timeMedian(reps int, f func()) time.Duration {
	ts := make([]float64, reps)
	for i := range ts {
		runtime.GC()
		start := time.Now()
		f()
		ts[i] = float64(time.Since(start))
	}
	return time.Duration(median(ts))
}
