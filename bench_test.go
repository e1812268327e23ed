// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark runs a scaled-down version of
// the corresponding reproduction and reports the headline quantities via
// b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's result set in one pass. cmd/hpca03 runs the same
// experiments at full scale with per-benchmark detail.
package selthrottle_test

import (
	"context"
	"testing"
	"time"

	"selthrottle/internal/cache"
	"selthrottle/internal/power"
	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
	"selthrottle/internal/store"
)

// benchOpts returns a reduced-scale options set: large enough for stable
// ratios, small enough to keep the full suite to minutes.
func benchOpts() sim.Options {
	return sim.Options{Instructions: 60000, Warmup: 15000}
}

// report pushes a figure row's average metrics into the benchmark output.
func report(b *testing.B, prefix string, c sim.Comparison) {
	b.ReportMetric(c.Speedup, prefix+"_speedup")
	b.ReportMetric(c.PowerSaving, prefix+"_power_sav_%")
	b.ReportMetric(c.EnergySaving, prefix+"_energy_sav_%")
	b.ReportMetric(c.EDImprovement, prefix+"_ED_improv_%")
}

// BenchmarkTable1PowerBreakdown regenerates Table 1: the baseline power
// breakdown and the fraction of overall power wasted by mis-speculated
// instructions (paper: 27.9 % overall, 56.4 W total).
func BenchmarkTable1PowerBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1 := sim.RunTable1(benchOpts())
		b.ReportMetric(t1.TotalWatts, "total_W")
		b.ReportMetric(100*t1.WastedTotal, "wasted_%")
		b.ReportMetric(100*t1.Shares[power.UnitClock], "clock_share_%")
		b.ReportMetric(100*t1.Shares[power.UnitWindow], "window_share_%")
	}
}

// BenchmarkTable2Benchmarks regenerates Table 2: per-benchmark gshare
// misprediction rates (paper: 6.8-19.7 %).
func BenchmarkTable2Benchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sim.RunTable2(benchOpts())
		var avg float64
		for _, r := range rows {
			avg += 100 * r.MeasuredMiss / float64(len(rows))
		}
		b.ReportMetric(avg, "avg_miss_%")
		for _, r := range rows {
			if r.Profile.Name == "go" {
				b.ReportMetric(100*r.MeasuredMiss, "go_miss_%")
			}
		}
	}
}

// BenchmarkFig1Oracles regenerates Figure 1: the oracle fetch/decode/select
// limit study (paper: oracle fetch saves ~21 % power / 24 % energy).
func BenchmarkFig1Oracles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sim.RunFigure("fig1", sim.OracleExperiments(), benchOpts())
		for _, id := range []string{"oracle-fetch", "oracle-decode", "oracle-select"} {
			row, _ := fr.Row(id)
			report(b, id, row.Average)
		}
	}
}

// BenchmarkFig3FetchThrottling regenerates Figure 3: fetch throttling
// experiments A1-A7 (paper: A5 best trade at 11.7 % energy, 8.6 % E-D).
func BenchmarkFig3FetchThrottling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sim.RunFigure("fig3", sim.FetchExperiments(), benchOpts())
		for _, id := range []string{"A1", "A5", "A6", "A7"} {
			row, _ := fr.Row(id)
			report(b, id, row.Average)
		}
	}
}

// BenchmarkFig4DecodeThrottling regenerates Figure 4: decode throttling
// experiments B1-B9 (paper: aggressive decode stalls hurt E-D; B7 = 11.9 %
// energy).
func BenchmarkFig4DecodeThrottling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sim.RunFigure("fig4", sim.DecodeExperiments(), benchOpts())
		for _, id := range []string{"B1", "B3", "B7", "B9"} {
			row, _ := fr.Row(id)
			report(b, id, row.Average)
		}
	}
}

// BenchmarkFig5SelectionThrottling regenerates Figure 5: the novel
// selection-throttling heuristic (paper: C2 best overall, 13.5 % energy,
// +~2 pp over C1 from no-select).
func BenchmarkFig5SelectionThrottling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sim.RunFigure("fig5", sim.SelectionExperiments(), benchOpts())
		for _, id := range []string{"C1", "C2", "C6", "C7"} {
			row, _ := fr.Row(id)
			report(b, id, row.Average)
		}
	}
}

// BenchmarkFig6PipelineDepth regenerates Figure 6: C2's savings across
// pipeline depths (paper: energy savings 11 % at 6 stages to 17.2 % at 28).
func BenchmarkFig6PipelineDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := sim.DepthSweep(benchOpts(), []int{6, 14, 28})
		for _, p := range points {
			switch p.X {
			case 6:
				b.ReportMetric(p.Average.EnergySaving, "d6_energy_sav_%")
			case 14:
				b.ReportMetric(p.Average.EnergySaving, "d14_energy_sav_%")
			case 28:
				b.ReportMetric(p.Average.EnergySaving, "d28_energy_sav_%")
			}
		}
	}
}

// BenchmarkFig7TableSize regenerates Figure 7: C2's savings across
// predictor+estimator budgets (paper: power savings 20.3 % at 8 KB falling
// to 16.5 % at 64 KB; energy/E-D roughly flat).
func BenchmarkFig7TableSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := sim.SizeSweep(benchOpts(), []int{8, 64})
		for _, p := range points {
			switch p.X {
			case 8:
				b.ReportMetric(p.Average.PowerSaving, "kb8_power_sav_%")
			case 64:
				b.ReportMetric(p.Average.PowerSaving, "kb64_power_sav_%")
			}
		}
	}
}

// BenchmarkConfidenceQuality regenerates the §4.3 estimator quality numbers
// (paper: BPRU SPEC 60 % / PVN 45 %; JRS SPEC 90 % / PVN 24 %).
func BenchmarkConfidenceQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		crs := sim.RunConfidence(benchOpts())
		for _, cr := range crs {
			b.ReportMetric(100*cr.SPEC, string(cr.Estimator)+"_SPEC_%")
			b.ReportMetric(100*cr.PVN, string(cr.Estimator)+"_PVN_%")
		}
	}
}

// BenchmarkAblationEstimatorCross regenerates the estimator/mechanism
// cross ablation: how much of Selective Throttling's edge over Pipeline
// Gating comes from the graded policy vs the estimator pairing.
func BenchmarkAblationEstimatorCross(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fr := sim.RunFigure("cross", sim.EstimatorCrossExperiments(), benchOpts())
		for _, id := range []string{"C2-bpru", "C2-jrs", "PG-jrs", "PG-bpru"} {
			row, _ := fr.Row(id)
			b.ReportMetric(row.Average.EnergySaving, id+"_energy_sav_%")
		}
	}
}

// BenchmarkSingleRun measures one scaled-down sim.Run end to end — the unit
// of work every figure and sweep above is built from — and reports allocs/op
// so the hot path's allocation behaviour lands in the benchmark trajectory.
// Result caching is disabled: this benchmark gauges the simulator itself,
// not the memo table in front of it.
func BenchmarkSingleRun(b *testing.B) {
	profile, _ := prog.ProfileByName("go")
	cfg := sim.Default()
	cfg.Instructions = 32000
	cfg.Warmup = 8000
	prev := sim.SetResultCaching(false)
	defer sim.SetResultCaching(prev)
	sim.Run(cfg, profile) // warm the program cache and runner pool
	sim.Run(cfg, profile) // settle pool and wakeup-list high-water marks
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(cfg, profile)
	}
}

// runScaled benchmarks sim.Run of cfg on profile with the result cache off,
// after one untimed warm run.
func runScaled(b *testing.B, cfg sim.Config, profile string) {
	prev := sim.SetResultCaching(false)
	defer sim.SetResultCaching(prev)
	p, _ := prog.ProfileByName(profile)
	cfg.Instructions = 24000
	cfg.Warmup = 6000
	sim.Run(cfg, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(cfg, p)
	}
}

// BenchmarkIssueStage isolates the event-driven issue stage on an enlarged
// instruction window (256 entries — double Table 3), where wakeup/select
// dominates the cycle loop.
func BenchmarkIssueStage(b *testing.B) {
	b.Run("event", func(b *testing.B) {
		cfg := sim.Default()
		cfg.Pipe.WindowSize = 256
		cfg.Pipe.LSQSize = 128
		runScaled(b, cfg, "gcc")
	})
}

// BenchmarkFrontEnd isolates the fused in-order front end (batched fetch
// groups over one ring + cursor) on a front-end-bound shape: a 28-stage
// pipe with 12-deep fetch and decode pipes, so refill traffic after every
// squash dominates.
func BenchmarkFrontEnd(b *testing.B) {
	b.Run("fused", func(b *testing.B) {
		cfg := sim.Default()
		cfg.Pipe.SetDepth(28)
		runScaled(b, cfg, "go")
	})
}

// BenchmarkSquashHeavy isolates the epoch-ledger power attribution on the
// shape where it dominates: the highest-misprediction profile on the
// deepest pipe (28 stages) with a doubled instruction window (256 entries,
// as in BenchmarkIssueStage), so every flush squashes the largest possible
// population of in-flight work and folds its epochs' events into the wasted
// pool.
func BenchmarkSquashHeavy(b *testing.B) {
	b.Run("epoch", func(b *testing.B) {
		cfg := sim.Default()
		cfg.Pipe.SetDepth(28)
		cfg.Pipe.WindowSize = 256
		cfg.Pipe.LSQSize = 128
		runScaled(b, cfg, "go")
	})
}

// BenchmarkWalkerNext isolates the workload walker — the single hottest
// function of the cycle loop — on the highest-misprediction profile.
func BenchmarkWalkerNext(b *testing.B) {
	profile, _ := prog.ProfileByName("go")
	program := prog.Generate(profile)
	b.Run("fast", func(b *testing.B) {
		w := prog.NewWalker(program)
		var d prog.DynInst
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Next(&d)
			if d.BrID != prog.NoBranch {
				w.Steer(d.Taken)
				w.Release(&d)
			}
		}
	})
}

// BenchmarkTLBAccess isolates the fully associative TLB: a mixed stream over
// a working set about twice the TLB's 128-entry reach, so hits exercise the
// O(1) recency splice and misses exercise victim eviction. allocs/op guards
// the hash-index path against per-access allocation.
func BenchmarkTLBAccess(b *testing.B) {
	t := cache.NewTLB(128)
	// Deterministic mixed stream: mostly a hot 64-page set, with excursions
	// over a 4096-page span that force misses and evictions.
	addrs := make([]uint64, 8192)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		page := state >> 58 // 0..63: hot set
		if i%7 == 0 {
			page = state >> 52 // 0..4095: cold sweep
		}
		addrs[i] = page << 12
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Access(addrs[i&8191])
	}
}

// BenchmarkDepthSweep measures the Figure 6 grid (12 depths x C2+baseline x
// all profiles) cold and then repeated, demonstrating the result cache: the
// warm pass re-serves every grid point from the memo table, so the repeat
// costs a vanishing fraction of the cold sweep (cache_win_%).
func BenchmarkDepthSweep(b *testing.B) {
	opts := sim.Options{Instructions: 20000, Warmup: 5000}
	var depths []int
	for d := 6; d <= 28; d += 2 {
		depths = append(depths, d)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ClearResultCache()
		t0 := time.Now()
		cold := sim.DepthSweep(opts, depths)
		coldT := time.Since(t0)
		t1 := time.Now()
		warm := sim.DepthSweep(opts, depths)
		warmT := time.Since(t1)
		if len(cold) != len(warm) || cold[0].Average != warm[0].Average {
			b.Fatal("cached sweep diverged from cold sweep")
		}
		b.ReportMetric(float64(coldT.Milliseconds()), "cold_ms")
		b.ReportMetric(float64(warmT.Milliseconds()), "warm_ms")
		b.ReportMetric(100*(1-warmT.Seconds()/coldT.Seconds()), "cache_win_%")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed (instructions
// simulated per wall-clock second), the engineering budget every experiment
// above spends. Result caching is disabled so every iteration simulates.
func BenchmarkSimulatorThroughput(b *testing.B) {
	profile, _ := prog.ProfileByName("gzip")
	cfg := sim.Default()
	cfg.Instructions = 50000
	cfg.Warmup = 5000
	prev := sim.SetResultCaching(false)
	defer sim.SetResultCaching(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(cfg, profile)
	}
	insts := float64(cfg.Instructions+cfg.Warmup) * float64(b.N)
	b.ReportMetric(insts/b.Elapsed().Seconds(), "sim_instrs/s")
}

// BenchmarkPointKey measures content-addressing one grid point: the
// canonicalization and SHA-256 every disk-tier lookup and publish, every
// sharded worker's ownership filter and every stserve point request pays
// before touching the store. It cycles through the `-exp all` grid so every
// profile, policy, depth and table size is keyed.
func BenchmarkPointKey(b *testing.B) {
	pts, err := sim.EnumerateGrid("all", "", sim.Options{Instructions: 10000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := &pts[i%len(pts)]
		pointKeySink = sim.PointKey(g.Cfg, g.Profile)
	}
}

// pointKeySink keeps BenchmarkPointKey's result observable.
var pointKeySink store.Key

// BenchmarkDiskTierHit measures one ResultCache lookup served by the disk
// tier: key derivation, the store read and the codec decode, with nothing
// simulated. The store is filled once; the memory tier is cleared (untimed)
// before every pass over the stored points, so each timed lookup misses
// memory and hits disk.
func BenchmarkDiskTierHit(b *testing.B) {
	st, err := store.Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	pts, err := sim.EnumerateGrid("table2", "", sim.Options{Instructions: 2000})
	if err != nil {
		b.Fatal(err)
	}
	c := sim.NewResultCache()
	c.SetDisk(st)
	r := sim.NewRunner()
	ctx := context.Background()
	for _, g := range pts {
		if _, err := c.RunE(ctx, r, g.Cfg, g.Profile); err != nil {
			b.Fatal(err)
		}
	}
	c.Clear()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pts)
		if k == 0 && i > 0 {
			b.StopTimer()
			c.Clear()
			b.StartTimer()
		}
		if _, err := c.RunE(ctx, r, pts[k].Cfg, pts[k].Profile); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if ts := c.TierStats(); ts.MemMisses != 0 || ts.DiskHits == 0 {
		b.Fatalf("lookups were not disk hits: %+v", ts)
	}
}
