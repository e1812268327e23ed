package main

// Run from this directory: go test ./...
// The tests build the drivers, run every workload's correctness check at
// the reduced scale serveN on the unchanged code, and show that corrupting
// one stored entry, or swapping the results of two points, fails the check
// with a message naming the point.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var tb *bench

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := func() int {
		bin := filepath.Join(dir, "bin")
		build := exec.Command("go", "build", "-o", bin+"/", "selthrottle/cmd/hpca03", "selthrottle/cmd/stworker", "selthrottle/cmd/stserve")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		if err := build.Run(); err != nil {
			fmt.Fprintln(os.Stderr, "building the drivers:", err)
			return 1
		}
		gold, err := loadGolden("golden")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		tb = &bench{bin: bin, tmp: dir, gold: gold}
		return m.Run()
	}()
	os.RemoveAll(dir)
	os.Exit(code)
}

func noErrs(t *testing.T, o *outcome) {
	t.Helper()
	for _, err := range o.errs {
		t.Error(err)
	}
	if o.failed != 0 {
		t.Errorf("%d of %d operations failed", o.failed, o.attempted)
	}
}

func TestSweepChecksPass(t *testing.T) {
	refs, err := labelGrid(serveN)
	if err != nil {
		t.Fatal(err)
	}
	o := newOutcome()
	if _, _, err := tb.sweepOnce(o, refs, serveN, sweepArgs(serveN, "")); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.shardedOnce(o, refs, serveN); err != nil {
		t.Fatal(err)
	}
	dir, err := tb.fillStore(o, refs, serveN)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tb.sweepOnce(o, refs, serveN, warmArgs(serveN, dir)); err != nil {
		t.Fatal(err)
	}
	noErrs(t, o)
	if o.attempted != 4*len(refs) {
		t.Errorf("attempted %d, want %d", o.attempted, 4*len(refs))
	}
}

func TestServeCheckPasses(t *testing.T) {
	refs, err := loadServeRefs()
	if err != nil {
		t.Fatal(err)
	}
	batch := planBatches(1, refs)[0]
	computes := 0
	for _, r := range batch {
		if r.Compute {
			computes++
		}
	}
	if computes == 0 {
		t.Fatal("the batch has no computes")
	}
	o := newOutcome()
	dir, err := tb.fillServeStore(o)
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := tb.startServer(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	bs := tb.runBatch(o, s, refs, batch, nil)
	if err := s.stop(); err != nil {
		t.Error(err)
	}
	noErrs(t, o)
	if len(bs.computeMs) != computes || len(bs.readMs) != len(batch)-computes {
		t.Errorf("timed %d reads and %d computes, want %d and %d", len(bs.readMs), len(bs.computeMs), len(batch)-computes, computes)
	}
}

// filledStore runs a stored sweep at serveN and returns its directory and
// the grid's points.
func filledStore(t *testing.T) (string, []pointRef) {
	t.Helper()
	refs, err := labelGrid(serveN)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r, err := tb.execDriver(nil, "hpca03", "-exp", "all", "-n", fmt.Sprint(serveN), "-store", dir)
	if err != nil || r.code != 0 {
		t.Fatalf("hpca03: code %d, %v", r.code, err)
	}
	if errs := tb.gold.checkStore(dir, refs); len(errs) != 0 {
		t.Fatalf("unchanged store fails the check: %v", errs[0])
	}
	return dir, refs
}

// swapEntries exchanges the stored results of two points.
func swapEntries(t *testing.T, dir string, a, b pointRef) {
	t.Helper()
	pa, pb := storeEntryPath(dir, a.Key), storeEntryPath(dir, b.Key)
	da, err := os.ReadFile(pa)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(pb)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pa, db, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pb, da, 0o644); err != nil {
		t.Fatal(err)
	}
}

// namesPoint requires err to name p by key, experiment and benchmark.
func namesPoint(t *testing.T, err error, p pointRef) {
	t.Helper()
	for _, want := range []string{p.Key.String(), p.Label, p.Bench} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("failure %q does not name %q", err, want)
		}
	}
}

func TestStoreCheckCatchesFlippedByte(t *testing.T) {
	dir, refs := filledStore(t)
	victim := refs[len(refs)/2]
	path := storeEntryPath(dir, victim.Key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	errs := tb.gold.checkStore(dir, refs)
	if len(errs) != 1 {
		t.Fatalf("want 1 failure, got %d: %v", len(errs), errs)
	}
	namesPoint(t, errs[0], victim)
}

func TestStoreCheckCatchesSwappedPoints(t *testing.T) {
	dir, refs := filledStore(t)
	a, b := refs[10], refs[200]
	swapEntries(t, dir, a, b)
	errs := tb.gold.checkStore(dir, refs)
	if len(errs) != 2 {
		t.Fatalf("want 2 failures, got %d: %v", len(errs), errs)
	}
	namesPoint(t, errs[0], a)
	namesPoint(t, errs[1], b)
}

func TestServeCheckCatchesSwappedPoints(t *testing.T) {
	dir, refs := filledStore(t)
	var a, b pointRef
	for _, p := range refs {
		if p.Addable && a.Bench == "" {
			a = p
		} else if p.Addable && p.Bench != a.Bench {
			b = p
			break
		}
	}
	swapEntries(t, dir, a, b)
	s, _, err := tb.startServer(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	for _, p := range []pointRef{a, b} {
		code, body, err := s.get("/v1/point?" + p.query())
		if err != nil {
			t.Fatal(err)
		}
		err = tb.checkReply(request{Ref: p}, code, body)
		if err == nil {
			t.Fatalf("%s: swapped result passed the check", p.name())
		}
		namesPoint(t, err, p)
	}
}

func TestPayloadDigestIgnoresAttempts(t *testing.T) {
	a, err := payloadDigest([]byte(`{"experiment":"C2","attempts":1,"result":{"ipc":1.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := payloadDigest([]byte("{\n  \"experiment\": \"C2\",\n  \"attempts\": 2,\n  \"result\": {\"ipc\": 1.5}\n}"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := payloadDigest([]byte(`{"experiment":"C2","attempts":1,"result":{"ipc":1.25}}`))
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a == c {
		t.Errorf("digests: %s %s %s", a, b, c)
	}
}

// busy burns CPU in this package so the profile has samples to attribute.
func busy(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestSelfTimesReadsProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	pprof.Do(context.Background(), pprof.Labels("figure", "busy"), func(context.Context) { busy(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	layers, labels, err := selfTimes(path)
	if err != nil {
		t.Fatal(err)
	}
	if layers["other"] < 100*time.Millisecond {
		t.Errorf("self time of this package %v, want most of 300ms (layers %v)", layers["other"], layers)
	}
	if labels["busy"] < 100*time.Millisecond {
		t.Errorf("label time %v, want most of 300ms", labels["busy"])
	}
	for fn, want := range map[string]string{
		"selthrottle/internal/pipe.(*Pipeline).Step": "pipe",
		"runtime.mallocgc":                           "runtime",
		"internal/runtime/maps.(*Map).Get":           "runtime",
		"net/http.(*conn).serve":                     "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
