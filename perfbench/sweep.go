package main

// The sweep workloads exec the real driver on the paper's full grid.
// paper-sweep runs `hpca03 -exp all` in one process on the memory tier
// only: the simulator does all the work. warm-sweep runs the same command
// over a store already holding every point: the store's recovery scan,
// disk-tier reads and the codec do the work, and nothing is simulated.
// sharded-sweep runs the grid with `-workers 2 -store <fresh dir>`, adding
// stworker spawning, partition leases, one fsync'd publish per point and
// the warm-store render; its difference from paper-sweep is the cost of
// distribution.

import (
	"fmt"
	"os"
	"time"

	"selthrottle/internal/store"
)

// minSweeps is the fewest timed sweeps a run reports a median over, and
// setupReps the number of set-up samples a run reports the median of.
const (
	minSweeps = 3
	setupReps = 15
)

// sweepArgs is the driver command line of one sweep, sharded over storeDir
// when it is not empty.
func sweepArgs(n uint64, storeDir string) []string {
	args := []string{"-exp", "all", "-n", fmt.Sprint(n)}
	if storeDir != "" {
		args = append(args, "-workers", "2", "-store", storeDir)
	}
	return args
}

// warmArgs is the driver command line of one sweep over the store in dir.
func warmArgs(n uint64, dir string) []string {
	return []string{"-exp", "all", "-n", fmt.Sprint(n), "-store", dir}
}

// sweepOnce runs one sweep and checks its exit code and stdout, recording
// its points as attempted and, if it is wrong, as failed. It reports
// whether the sweep passed.
func (b *bench) sweepOnce(o *outcome, refs []pointRef, n uint64, args []string) (proc, bool, error) {
	r, err := b.execDriver(nil, "hpca03", args...)
	if err != nil {
		return r, false, err
	}
	o.attempted += len(refs)
	if r.code != 0 {
		o.fail(len(refs), fmt.Errorf("hpca03 %v exited %d: %s", args, r.code, lastLine(r.stderr)))
		return r, false, nil
	}
	if err := b.gold.checkStdout(n, r.stdout); err != nil {
		o.fail(len(refs), err)
		return r, false, nil
	}
	return r, true, nil
}

// shardedOnce runs one sharded sweep over a fresh store and also checks
// every entry the workers published.
func (b *bench) shardedOnce(o *outcome, refs []pointRef, n uint64) (proc, error) {
	dir, err := b.tempDir("sweep-store-")
	if err != nil {
		return proc{}, err
	}
	defer os.RemoveAll(dir)
	r, ok, err := b.sweepOnce(o, refs, n, sweepArgs(n, dir))
	if ok {
		for _, err := range b.gold.checkStore(dir, refs) {
			o.fail(1, err)
		}
	}
	return r, err
}

// fillStore runs a sweep over a fresh store, checks it and every entry it
// published, and returns the store's directory.
func (b *bench) fillStore(o *outcome, refs []pointRef, n uint64) (string, error) {
	dir, err := b.tempDir("warm-store-")
	if err != nil {
		return "", err
	}
	if _, ok, err := b.sweepOnce(o, refs, n, warmArgs(n, dir)); err != nil || !ok {
		return dir, err
	}
	for _, err := range b.gold.checkStore(dir, refs) {
		o.fail(1, err)
	}
	return dir, nil
}

// runSweep runs the sweep workloads. A run sets up, times the set-up
// setupReps times, runs one checked warm-up sweep, then timed sweeps until
// seconds have passed.
//
// Set-up is what the driver does before it can serve its first point:
// generating the benchmark programs, plus opening a fresh store for
// sharded-sweep. warm-sweep generates nothing, since every point is
// stored, so its set-up is opening the warm store.
func (b *bench) runSweep(o *outcome, seconds int, workload string) error {
	refs, err := labelGrid(sweepN)
	if err != nil {
		return err
	}
	var once func() (proc, error)
	var setupErr error
	var setup time.Duration
	switch workload {
	case "paper-sweep":
		once = func() (proc, error) {
			r, _, err := b.sweepOnce(o, refs, sweepN, sweepArgs(sweepN, ""))
			return r, err
		}
		setup = timeMedian(setupReps, generateProfiles)
	case "sharded-sweep":
		once = func() (proc, error) { return b.shardedOnce(o, refs, sweepN) }
		setup = timeMedian(setupReps, func() {
			generateProfiles()
			dir, err := b.tempDir("setup-store-")
			if err == nil {
				_, err = store.Open(dir, nil)
			}
			if err != nil {
				setupErr = err
			}
		})
	case "warm-sweep":
		dir, err := b.fillStore(o, refs, sweepN)
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		once = func() (proc, error) {
			r, _, err := b.sweepOnce(o, refs, sweepN, warmArgs(sweepN, dir))
			return r, err
		}
		setup = timeMedian(setupReps, func() {
			if _, err := store.Open(dir, nil); err != nil {
				setupErr = err
			}
		})
	default:
		return fmt.Errorf("runSweep: unknown workload %q", workload)
	}
	if setupErr != nil {
		return setupErr
	}
	if _, err := once(); err != nil {
		return err
	}
	var walls, rss []float64
	start := time.Now()
	for len(walls) < minSweeps || time.Since(start) < time.Duration(seconds)*time.Second {
		r, err := once()
		if err != nil {
			return err
		}
		walls = append(walls, r.wall.Seconds())
		rss = append(rss, float64(r.maxRSSKB)/1024)
	}
	wall := median(walls)
	fmt.Fprintf(os.Stderr, "perfbench: %d sweeps, median wall_s %.4f\n", len(walls), wall)
	o.set("setup_s", "s", setup.Seconds())
	o.set("wall_s", "s", wall)
	o.set("sim_minst_per_s", "Minst/s", float64(len(refs))*simInsts(sweepN)/wall/1e6)
	o.set("req_per_s", "1/s", float64(len(refs))/wall)
	o.set("peak_rss_mb", "MB", median(rss))
	return nil
}

// lastLine is the final non-empty line of a driver's stderr, for messages.
func lastLine(b []byte) string {
	end := len(b)
	for end > 0 && (b[end-1] == '\n' || b[end-1] == '\r') {
		end--
	}
	start := end
	for start > 0 && b[start-1] != '\n' {
		start--
	}
	return string(b[start:end])
}
