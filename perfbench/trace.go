package main

// The traced run: the same inputs as the timed runs, driven through the
// public functions of each layer from this process, with a span around
// every call and a CPU profile of the whole run reduced to self time per
// package. Spans stay in memory until the end and, with the profile and a
// report, are written under the checkout's .bench_build/trace directory,
// never to stdout. The timed runs carry none of this.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"selthrottle/internal/grid"
	"selthrottle/internal/sim"
	"selthrottle/internal/store"
)

// Traced-run sizes: untraced/traced sweep and serve-session pairs, RunE
// passes over the grid, timed store Put rounds, timed Gets, and serve
// batches per session (enough for the reported percentiles to have ten
// samples beyond them).
const (
	sweepPairs   = 3
	servePairs   = 2
	pointPasses  = 3
	putRounds    = 3
	storeGets    = 2000
	traceBatches = 5
)

// span is one timed call: name, start and end since the run began, the
// span that caused it and the request it served.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Req: req, Start: now})
	return id
}

func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, parent, req int64, f func(id int64)) time.Duration {
	id := t.begin(name, parent, req)
	start := time.Now()
	f(id)
	d := time.Since(start)
	t.end(id)
	return d
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// profiledLayers are the layers whose profile self time is reported as a
// metric; report.txt lists every layer selfTimes finds.
var profiledLayers = []string{"sim", "pipe", "prog", "bpred", "conf", "cache", "power", "core", "store", "grid", "runtime"}

// runTraced is the traced run of a workload. Every traced run measures
// every layer; the workload selects which untraced twin the tracing
// overhead is taken against.
func (b *bench) runTraced(o *outcome, workload string, seed int64, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	pf, err := os.Create(filepath.Join(outDir, "cpu.pprof"))
	if err != nil {
		return err
	}
	defer pf.Close()
	if err := pprof.StartCPUProfile(pf); err != nil {
		return err
	}
	tr := &tracer{t0: time.Now()}
	root := tr.begin("traced-run", 0, 0)
	var overhead float64
	err = func() error {
		refs, err := labelGrid(sweepN)
		if err != nil {
			return err
		}
		tr.timed("prog.Generate", root, 0, func(int64) {
			o.set("prog.generate_ms", "ms", ms(timeMedian(5, generateProfiles)))
		})
		warmDir := ""
		if workload == "warm-sweep" {
			if warmDir, err = b.fillStore(o, refs, sweepN); err != nil {
				return err
			}
		}
		sweepOverhead, err := b.traceSweep(o, tr, root, len(refs), warmDir)
		if err != nil {
			return err
		}
		entries, err := b.tracePoints(o, tr, root, refs)
		if err != nil {
			return err
		}
		if err := b.traceStore(o, tr, root, refs, entries, seed); err != nil {
			return err
		}
		if err := b.traceGrid(o, tr, root, refs); err != nil {
			return err
		}
		serveOverhead, err := b.traceServe(o, tr, root, seed)
		if err != nil {
			return err
		}
		overhead = sweepOverhead
		if workload == "serve-mixed" {
			overhead = serveOverhead
		}
		return nil
	}()
	tr.end(root)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}
	o.set("trace.overhead_frac", "ratio", overhead)

	self, labels, err := selfTimes(filepath.Join(outDir, "cpu.pprof"))
	if err != nil {
		return err
	}
	for _, l := range profiledLayers {
		o.set(l+".self_s", "s", self[l].Seconds())
	}
	spans, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, "spans.json"), spans, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "report.txt"), report(workload, seed, overhead, self, labels, o.metrics), 0o644)
}

// tracedPass orders a run's untraced and traced passes untraced, traced,
// traced, untraced, and so on, so drift and warm-up during the run fall on
// both sides alike.
func tracedPass(pass int) bool { return pass%4 == 1 || pass%4 == 2 }

// traceSweep runs sweepPairs untraced execs of `hpca03 -exp all` and as
// many traced in-process sweeps in tracedPass order. With a warmDir, both
// run over that filled store, as warm-sweep does, and each traced sweep
// first opens the store, as the driver does. It reports the figure spans
// and the pool idle share as medians over the traced sweeps, and returns
// the tracing overhead: median traced wall over median untraced wall,
// minus one. The untraced wall also holds process start-up, which the
// in-process sweep does not pay.
func (b *bench) traceSweep(o *outcome, tr *tracer, root int64, points int, warmDir string) (float64, error) {
	args := sweepArgs(sweepN, "")
	if warmDir != "" {
		args = warmArgs(sweepN, warmDir)
		defer sim.AttachDiskStore(nil)
	}
	var traced, untraced, idle []float64
	figs := map[string][]float64{}
	for pass := 0; pass < 2*sweepPairs; pass++ {
		if tracedPass(pass) {
			var open time.Duration
			if warmDir != "" {
				var st *store.Store
				var err error
				open = tr.timed("store.Open", root, 0, func(int64) { st, err = store.Open(warmDir, nil) })
				if err != nil {
					return 0, err
				}
				sim.AttachDiskStore(st)
			}
			wall, idleFrac := b.tracedSweep(o, tr, root, points, figs, len(traced) == 0)
			traced = append(traced, (open + wall).Seconds())
			idle = append(idle, idleFrac)
			continue
		}
		r, err := b.execDriver(nil, "hpca03", args...)
		if err != nil {
			return 0, err
		}
		if r.code != 0 {
			return 0, fmt.Errorf("untraced sweep exited %d: %s", r.code, lastLine(r.stderr))
		}
		untraced = append(untraced, r.wall.Seconds())
	}
	for name, ds := range figs {
		o.set("sim.figure_s."+name, "s", median(ds))
	}
	o.set("sim.pool_idle_frac", "ratio", median(idle))
	return median(traced)/median(untraced) - 1, nil
}

// tracedSweep runs `-exp all` in this process exactly as hpca03 does, with
// a span and a profiler label around each figure call, and checks its
// output against the golden stdout. It appends each figure call's duration
// to figs and returns the sweep's wall time and the idle share of
// GOMAXPROCS × wall. The first sweep of a run also sets the cache and
// allocation metrics: like a driver process, it starts with no generated
// programs.
func (b *bench) tracedSweep(o *outcome, tr *tracer, root int64, points int, figs map[string][]float64, first bool) (time.Duration, float64) {
	opts := sim.Options{Instructions: sweepN}
	sim.ClearResultCache()
	var out bytes.Buffer
	failed := 0
	figure := func(title string, exps []sim.Experiment) func(context.Context) error {
		return func(ctx context.Context) error {
			fr := sim.RunFigureE(ctx, title, exps, opts)
			sim.WriteFigure(&out, fr)
			failed += len(fr.Failures)
			return nil
		}
	}
	sweep := func(title, x string, run func(context.Context, sim.Options, []int) []sim.SweepPoint) func(context.Context) error {
		return func(ctx context.Context) error {
			pts := run(ctx, opts, nil)
			for _, p := range pts {
				failed += len(p.Failures)
			}
			sim.WriteSweep(&out, title, x, pts)
			return nil
		}
	}
	calls := []struct {
		name string
		run  func(context.Context) error
	}{
		{"table2", func(ctx context.Context) error {
			rows, err := sim.RunTable2E(ctx, opts)
			if err == nil {
				sim.WriteTable2(&out, rows)
			}
			return err
		}},
		{"table1", func(ctx context.Context) error {
			t, err := sim.RunTable1E(ctx, opts)
			if err == nil {
				sim.WriteTable1(&out, t)
			}
			return err
		}},
		{"confidence", func(ctx context.Context) error {
			crs, err := sim.RunConfidenceE(ctx, opts)
			if err == nil {
				sim.WriteConfidence(&out, crs)
			}
			return err
		}},
		{"fig1", figure("Figure 1: oracle fetch/decode/select", sim.OracleExperiments())},
		{"fig3", figure("Figure 3: fetch throttling", sim.FetchExperiments())},
		{"fig4", figure("Figure 4: decode throttling", sim.DecodeExperiments())},
		{"fig5", figure("Figure 5: selection throttling", sim.SelectionExperiments())},
		{"fig6", sweep("Figure 6: pipeline depth (experiment C2)", "stages", sim.DepthSweepE)},
		{"fig7", sweep("Figure 7: predictor+estimator size (experiment C2)", "KB", sim.SizeSweepE)},
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	var callErr error
	wall := tr.timed("sim.sweep", root, 0, func(parent int64) {
		sim.WriteTable3(&out, sim.Default())
		for _, c := range calls {
			out.WriteString("\n")
			pprof.Do(context.Background(), pprof.Labels("figure", c.name), func(ctx context.Context) {
				d := tr.timed("sim."+c.name, parent, 0, func(int64) {
					if err := c.run(ctx); err != nil && callErr == nil {
						callErr = fmt.Errorf("%s: %v", c.name, err)
					}
				})
				figs[c.name] = append(figs[c.name], d.Seconds())
			})
		}
	})
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)

	o.attempted += points
	switch {
	case callErr != nil:
		o.fail(points, callErr)
	case failed > 0:
		o.fail(failed, fmt.Errorf("in-process sweep: %d grid point(s) failed", failed))
	default:
		if err := b.gold.checkStdout(sweepN, out.Bytes()); err != nil {
			o.fail(points, fmt.Errorf("in-process sweep: %v", err))
		}
	}
	if first {
		ts := sim.ResultCacheTierStats()
		served := ts.MemHits + ts.MemMisses + ts.DiskHits
		o.set("sim.mem_hits", "count", float64(ts.MemHits))
		o.set("sim.mem_reuse", "ratio", float64(ts.MemHits)/float64(served))
		o.set("sim.alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		o.set("sim.allocs_per_point", "count", float64(m1.Mallocs-m0.Mallocs)/float64(points))
	}
	sim.ClearResultCache()
	return wall, 1 - float64(cpu)/(float64(runtime.GOMAXPROCS(0))*float64(wall))
}

// tracePoints drives (*sim.Runner).RunE one unique point at a time,
// pointPasses times over the grid, checks every result's codec bytes and
// sums the pipeline counts of one pass. It returns the pass's entries.
func (b *bench) tracePoints(o *outcome, tr *tracer, root int64, refs []pointRef) ([]store.Entry, error) {
	r := sim.NewRunner()
	entries := make([]store.Entry, len(refs))
	var lat []float64
	var total time.Duration
	var cycles, committed, fetched, gated uint64
	parent := tr.begin("sim.points", root, 0)
	for pass := 0; pass < pointPasses; pass++ {
		for i, p := range refs {
			var res sim.Result
			var err error
			d := tr.timed("sim.RunE", parent, int64(i), func(int64) {
				res, err = r.RunE(context.Background(), p.Point.Cfg, p.Point.Profile)
			})
			o.attempted++
			if err != nil {
				o.fail(1, fmt.Errorf("%s: RunE: %v", p.name(), err))
				continue
			}
			lat = append(lat, ms(d))
			total += d
			cycles += res.Stats.Cycles
			codec := sim.EncodeResultEntry(&res)
			if err := b.gold.checkCodec(p, codec); err != nil {
				o.fail(1, err)
				continue
			}
			if pass == 0 {
				committed += res.Stats.Committed
				fetched += res.Stats.Fetched
				gated += res.Stats.FetchGatedCycles + res.Stats.DecodeGatedCycles
				if entries[i], err = store.DecodeEntry(codec); err != nil {
					return nil, err
				}
			}
		}
	}
	tr.end(parent)
	o.set("sim.point_ms_p50", "ms", quantile(lat, 0.5))
	o.set("sim.point_ms_p99", "ms", quantile(lat, 0.99))
	o.set("sim.point_n", "count", float64(len(lat)))
	o.set("sim.ns_per_cycle", "ns", float64(total)/float64(cycles))
	o.set("pipe.cycles", "count", float64(cycles/pointPasses))
	o.set("pipe.committed", "count", float64(committed))
	o.set("pipe.fetched", "count", float64(fetched))
	o.set("pipe.useful_fetch_ratio", "ratio", float64(committed)/float64(fetched))
	o.set("pipe.gated_cycles", "count", float64(gated))
	return entries, nil
}

// traceStore times the store layer on the grid's real entries: fsync'd
// Puts into fresh stores, Gets, the codec, and Open over the filled store.
func (b *bench) traceStore(o *outcome, tr *tracer, root int64, refs []pointRef, entries []store.Entry, seed int64) error {
	parent := tr.begin("store", root, 0)
	defer tr.end(parent)
	// Each round puts the grid into a fresh store; the last one stays
	// filled for Open and Get. The bench's scratch directory is removed at
	// exit, stores included.
	var puts []float64
	var dir string
	for round := 0; round < putRounds; round++ {
		var err error
		if dir, err = b.tempDir("trace-store-"); err != nil {
			return err
		}
		st, err := store.Open(dir, nil)
		if err != nil {
			return err
		}
		for i, p := range refs {
			d := tr.timed("store.Put", parent, int64(i), func(int64) { err = st.Put(p.Key, &entries[i]) })
			if err != nil {
				return fmt.Errorf("%s: Put: %v", p.name(), err)
			}
			puts = append(puts, us(d))
		}
	}
	for _, err := range b.gold.checkStore(dir, refs) {
		o.fail(1, err)
	}
	o.attempted += len(refs)
	o.set("store.put_us_p50", "us", quantile(puts, 0.5))
	o.set("store.put_us_p99", "us", quantile(puts, 0.99))

	var st *store.Store
	var err error
	tr.timed("store.Open", parent, 0, func(int64) {
		o.set("store.open_ms", "ms", ms(timeMedian(5, func() { st, err = store.Open(dir, nil) })))
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	var gets []float64
	for i := 0; i < storeGets; i++ {
		p := refs[rng.Intn(len(refs))]
		var e store.Entry
		var ok bool
		d := tr.timed("store.Get", parent, int64(i), func(int64) { e, ok, err = st.Get(p.Key) })
		if err != nil || !ok {
			return fmt.Errorf("%s: Get: ok=%v err=%v", p.name(), ok, err)
		}
		gets = append(gets, us(d))
		o.attempted++
		if err := b.gold.checkCodec(p, store.EncodeEntry(&e)); err != nil {
			o.fail(1, err)
		}
	}
	o.set("store.get_us_p50", "us", quantile(gets, 0.5))
	o.set("store.get_us_p99", "us", quantile(gets, 0.99))

	codecs := make([][]byte, len(entries))
	enc := timeMedian(9, func() {
		for i := range entries {
			codecs[i] = store.EncodeEntry(&entries[i])
		}
	})
	dec := timeMedian(9, func() {
		for _, c := range codecs {
			if _, err := store.DecodeEntry(c); err != nil {
				panic(err) // invariant: codecs were just encoded
			}
		}
	})
	o.set("store.encode_ns", "ns", float64(enc)/float64(len(entries)))
	o.set("store.decode_ns", "ns", float64(dec)/float64(len(entries)))
	return nil
}

// workerSummary matches stworker's -v partition summary line.
var workerSummary = regexp.MustCompile(`p\d+/\d+: owned (\d+), computed (\d+), failed (\d+), stolen (\d+)`)

// traceGrid times point-lease claims, the two stworker partitions spawned
// directly, and the sharded sweep with its warm-store render, whose
// difference is the coordinator's overhead.
func (b *bench) traceGrid(o *outcome, tr *tracer, root int64, refs []pointRef) error {
	parent := tr.begin("grid", root, 0)
	defer tr.end(parent)
	pts := make([]sim.GridPoint, len(refs))
	for i, r := range refs {
		pts[i] = r.Point
	}
	gridID := grid.ID(pts)

	dir, err := b.tempDir("trace-leases-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mgr, err := grid.NewManager(dir, nil, 0)
	if err != nil {
		return err
	}
	var claims []float64
	for i, p := range refs {
		var l *grid.Lease
		d := tr.timed("grid.ClaimPoint", parent, int64(i), func(int64) { l, err = mgr.ClaimPoint(gridID, p.Key, "perfbench", false) })
		if err != nil {
			return fmt.Errorf("%s: ClaimPoint: %v", p.name(), err)
		}
		l.Release()
		claims = append(claims, us(d))
	}
	o.set("grid.claim_us_p50", "us", quantile(claims, 0.5))

	wdir, err := b.tempDir("trace-workers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(wdir)
	var (
		wg      sync.WaitGroup
		runs    [2]proc
		errs    [2]error
		owned   int
		compute int
		stolen  int
	)
	workers := tr.timed("grid.workers", parent, 0, func(id int64) {
		for part := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp := tr.begin("stworker", id, int64(part))
				runs[part], errs[part] = b.execDriver(nil, "stworker", "-store", wdir, "-part", fmt.Sprint(part), "-of", "2",
					"-exp", "all", "-n", fmt.Sprint(sweepN), "-v")
				tr.end(sp)
			}()
		}
		wg.Wait()
	})
	for part, r := range runs {
		if errs[part] != nil {
			return errs[part]
		}
		if r.code != 0 {
			return fmt.Errorf("stworker p%d exited %d: %s", part, r.code, lastLine(r.stderr))
		}
		m := workerSummary.FindSubmatch(r.stderr)
		if m == nil {
			return fmt.Errorf("stworker p%d printed no summary line", part)
		}
		owned += atoi(m[1])
		compute += atoi(m[2])
		stolen += atoi(m[4])
	}
	o.attempted += len(refs)
	for _, err := range b.gold.checkStore(wdir, refs) {
		o.fail(1, err)
	}
	o.set("grid.workers_s", "s", workers.Seconds())
	o.set("grid.dup_points", "count", float64(compute-owned))
	o.set("grid.stolen", "count", float64(stolen))

	sdir, err := b.tempDir("trace-sharded-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sdir)
	var sharded, render proc
	for _, step := range []struct {
		name string
		r    *proc
		args []string
	}{
		{"hpca03.sharded", &sharded, sweepArgs(sweepN, sdir)},
		{"hpca03.render", &render, warmArgs(sweepN, sdir)},
	} {
		var err error
		tr.timed(step.name, parent, 0, func(int64) { *step.r, err = b.execDriver(nil, "hpca03", step.args...) })
		if err != nil {
			return err
		}
		o.attempted += len(refs)
		if step.r.code != 0 {
			o.fail(len(refs), fmt.Errorf("hpca03 %v exited %d: %s", step.args, step.r.code, lastLine(step.r.stderr)))
		} else if err := b.gold.checkStdout(sweepN, step.r.stdout); err != nil {
			o.fail(len(refs), err)
		}
	}
	o.set("grid.coord_overhead_s", "s", (sharded.wall - workers - render.wall).Seconds())
	return nil
}

func atoi(b []byte) int {
	n, _ := strconv.Atoi(string(b)) // the regexp admits digits only
	return n
}

// statsz is the part of stserve's /statsz the benchmark reads.
type statsz struct {
	Requests struct {
		Shed uint64 `json:"shed"`
	} `json:"requests"`
	Retried uint64 `json:"retried_attempts"`
	Cache   struct {
		MemHits  uint64 `json:"mem_hits"`
		DiskHits uint64 `json:"disk_hits"`
		DiskPuts uint64 `json:"disk_puts"`
	} `json:"cache"`
}

// traceServe replays the serve workload's first batches on freshly filled
// stores and servers, servePairs times untraced and servePairs times with a
// span per request, in tracedPass order. Latencies and /statsz come from
// the last traced session. It returns the tracing overhead: median traced
// session wall over median untraced, minus one.
func (b *bench) traceServe(o *outcome, tr *tracer, root int64, seed int64) (float64, error) {
	parent := tr.begin("serve", root, 0)
	defer tr.end(parent)
	refs, err := loadServeRefs()
	if err != nil {
		return 0, err
	}
	batches := planBatches(seed, refs)[:traceBatches]
	var traced, untraced, reads, computes []float64
	conflicts := 0
	var stats statsz
	for pass := 0; pass < 2*servePairs; pass++ {
		var ptr *tracer
		if tracedPass(pass) {
			ptr = tr
			reads, computes, conflicts = nil, nil, 0
		}
		dir, err := b.fillServeStore(o)
		if err != nil {
			return 0, err
		}
		s, _, err := b.startServer(dir, nil)
		if err != nil {
			return 0, err
		}
		var wall time.Duration
		for _, batch := range batches {
			bs := b.runBatch(o, s, refs, batch, ptr)
			wall += bs.wall
			if ptr != nil {
				reads = append(reads, bs.readMs...)
				computes = append(computes, bs.computeMs...)
				conflicts += bs.conflicts
			}
		}
		if ptr == nil {
			untraced = append(untraced, wall.Seconds())
		} else {
			traced = append(traced, wall.Seconds())
			code, body, err := s.get("/statsz")
			if err == nil && code == 200 {
				err = json.Unmarshal(body, &stats)
			} else if err == nil {
				err = fmt.Errorf("/statsz: HTTP %d", code)
			}
			if err != nil {
				s.stop()
				return 0, err
			}
		}
		if err := s.stop(); err != nil {
			return 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
	}
	o.set("serve.read_p50_ms", "ms", quantile(reads, 0.5))
	o.set("serve.read_p99_ms", "ms", quantile(reads, 0.99))
	o.set("serve.read_n", "count", float64(len(reads)))
	o.set("serve.compute_p50_ms", "ms", quantile(computes, 0.5))
	o.set("serve.compute_p90_ms", "ms", quantile(computes, 0.9))
	o.set("serve.compute_n", "count", float64(len(computes)))
	o.set("stserve.shed", "count", float64(stats.Requests.Shed))
	o.set("stserve.retried", "count", float64(stats.Retried))
	o.set("stserve.mem_hits", "count", float64(stats.Cache.MemHits))
	o.set("sim.disk_hits", "count", float64(stats.Cache.DiskHits))
	o.set("sim.disk_puts", "count", float64(stats.Cache.DiskPuts))
	o.set("fleet.conflicts", "count", float64(conflicts))
	get := o.metrics["store.get_us_p50"].Value / 1e3
	dec := o.metrics["store.decode_ns"].Value / 1e6
	o.set("stserve.read_overhead_ms", "ms", o.metrics["serve.read_p50_ms"].Value-get-dec)
	return median(traced)/median(untraced) - 1, nil
}

// report renders the traced run's human-readable summary.
func report(workload string, seed int64, overhead float64, self map[string]time.Duration, labels map[string]time.Duration, metrics map[string]metric) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "perfbench traced run: workload %s, seed %d\n%s\n", workload, seed, machine())
	fmt.Fprintf(&sb, "tracing overhead against the untraced twin: %+.1f%%\n\n", 100*overhead)
	var total time.Duration
	names := make([]string, 0, len(self))
	for k, v := range self {
		names = append(names, k)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(&sb, "CPU self time per package (profile of this process; %.2fs total)\n", total.Seconds())
	for _, k := range names {
		fmt.Fprintf(&sb, "  %-10s %8.3fs %5.1f%%\n", k, self[k].Seconds(), 100*float64(self[k])/float64(total))
	}
	sb.WriteString("\nCPU time per figure label\n")
	names = names[:0]
	for k := range labels {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&sb, "  %-10s %8.3fs\n", k, labels[k].Seconds())
	}
	sb.WriteString("\nper-layer metrics\n")
	names = names[:0]
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&sb, "  %-28s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	return []byte(sb.String())
}
