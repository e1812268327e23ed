// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It execs the real drivers (hpca03, stworker, stserve), checks every
// output against golden digests, and prints one JSON result line. See
// README.md for the workloads, the metrics and how to run it.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --regen-golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

var workloads = []string{"paper-sweep", "warm-sweep", "sharded-sweep", "serve-mixed"}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed (draws serve-mixed's request sequence)")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1: the traced run, reporting per-layer metrics")
	root := flag.String("root", ".", "repository checkout the benchmark runs in")
	bin := flag.String("bin", "", "directory holding the built hpca03, stworker and stserve")
	regen := flag.Bool("regen-golden", false, "recompute the golden digests from the current code and rewrite perfbench/golden")
	flag.Parse()

	work := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(work, "tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	b := &bench{bin: *bin, tmp: tmp}
	goldenDir := filepath.Join(*root, "perfbench", "golden")

	if *regen {
		if err := b.regenGolden(goldenDir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: regen-golden:", err)
			return 1
		}
		return 0
	}
	if b.gold, err = loadGolden(goldenDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	o := newOutcome()
	steal0, total0 := cpuSteal()
	switch {
	case *trace == 1 && !slices.Contains(workloads, *workload):
		err = fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
	case *trace == 1:
		err = b.runTraced(o, *workload, *seed, filepath.Join(work, "trace", fmt.Sprintf("%s-seed%d", *workload, *seed)))
	case *workload == "serve-mixed":
		err = b.runServe(o, *seconds, *seed)
	case slices.Contains(workloads, *workload):
		err = b.runSweep(o, *seconds, *workload)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	steal1, total1 := cpuSteal()
	steal := float64(steal1-steal0) / float64(max(total1-total0, 1))
	fmt.Fprintf(os.Stderr, "perfbench: host CPU steal during the run: %.1f%%\n", 100*steal)
	if *trace == 0 {
		o.set("ok_frac", "ratio", float64(o.attempted-o.failed)/float64(o.attempted))
	}
	for i, e := range o.errs {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more\n", len(o.errs)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.errs) == 0, o.attempted, o.failed, o.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := writeResultsFile(work, *workload, *seed, *trace, steal, line); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeResultsFile keeps every run's result with the machine it ran on and
// the share of CPU time the host stole from it during the run.
func writeResultsFile(work, workload string, seed int64, trace int, steal float64, line []byte) error {
	dir := filepath.Join(work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body := fmt.Sprintf("{\"workload\": %q, \"seed\": %d, \"trace\": %d,\n \"machine\": %q, \"host_steal_frac\": %.4f,\n \"result\": %s}\n",
		workload, seed, trace, machine(), steal, line)
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, trace)), []byte(body), 0o644)
}

// machine describes the host: nproc, GOMAXPROCS, Go version, CPU model and
// kernel.
func machine() string {
	cpu := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var sb strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			sb.WriteByte(byte(c))
		}
		kernel = sb.String()
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%s kernel=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpu, kernel)
}

// cpuSteal reads the machine-wide stolen and total CPU time, in clock
// ticks, from /proc/stat. On a virtual machine, time the host gives to
// other guests slows every workload here; zero when unreadable.
func cpuSteal() (steal, total uint64) {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total
}
