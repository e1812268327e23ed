package main

// serve-mixed: stserve on loopback over a store filled during set-up, driven
// by a closed loop of two connections from this process. Closed, because
// the service's real callers — fleet coordinators and scripts — each wait
// for a reply before sending the next request. The seed draws the request
// sequence: reads are GET /v1/point for stored points, spread over more
// points than the server's memory tier holds so both the memory and the
// disk tier serve them; computes are GET /v1/compute for points of grids
// nobody has stored yet, each taking a point lease, simulating, publishing
// with fsync and returning codec bytes.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"selthrottle/internal/fleet"
	"selthrottle/internal/grid"
	"selthrottle/internal/sim"
)

// Serve workload shape. A batch is batchSize requests of which
// batchComputes are computes; the compute pool (computeGrids grids of
// unstored points) bounds how many batches one server can take.
const (
	serveConns    = 2
	cacheEntries  = 128 // below the read population, so the disk tier serves too
	batchSize     = 4000
	batchComputes = 20
	serveStarts   = 5 // set-up samples per run

	// rssBatches is how many batches the server has served when its peak
	// RSS is read. stserve's RSS grows with requests served, so reading it
	// after a fixed amount of work keeps it independent of run speed.
	rssBatches = 8
)

// serveRefs is the serve workload's point population.
type serveRefs struct {
	reads    []pointRef   // addressable points of the stored grid at serveN
	computes [][]pointRef // grids at serveN+1 .. serveN+computeGrids
	gridIDs  []string
}

func loadServeRefs() (*serveRefs, error) {
	all, err := labelGrid(serveN)
	if err != nil {
		return nil, err
	}
	s := &serveRefs{}
	for _, p := range all {
		if p.Addable {
			s.reads = append(s.reads, p)
		}
	}
	for k := 1; k <= computeGrids; k++ {
		refs, err := labelGrid(serveN + uint64(k))
		if err != nil {
			return nil, err
		}
		pts := make([]sim.GridPoint, len(refs))
		for i, r := range refs {
			pts[i] = r.Point
		}
		s.computes = append(s.computes, refs)
		s.gridIDs = append(s.gridIDs, grid.ID(pts))
	}
	return s, nil
}

// request is one planned request: a read of a stored point, or a compute
// of point Ref in compute grid Grid.
type request struct {
	Compute bool
	Grid    int
	Ref     pointRef
}

// planBatches draws the seeded request sequence: batches of batchSize
// requests with batchComputes computes at seeded positions. Compute points
// are drawn without replacement, so every compute is of an unstored point.
func planBatches(seed int64, refs *serveRefs) [][]request {
	rng := rand.New(rand.NewSource(seed))
	type cp struct{ grid, idx int }
	var pool []cp
	for g, rs := range refs.computes {
		for i := range rs {
			pool = append(pool, cp{g, i})
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	var batches [][]request
	for len(pool) >= batchComputes {
		b := make([]request, batchSize)
		for i := range b {
			b[i] = request{Ref: refs.reads[rng.Intn(len(refs.reads))]}
		}
		for _, pos := range rng.Perm(batchSize)[:batchComputes] {
			c := pool[0]
			pool = pool[1:]
			b[pos] = request{Compute: true, Grid: c.grid, Ref: refs.computes[c.grid][c.idx]}
		}
		batches = append(batches, b)
	}
	return batches
}

// server is one running stserve.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	client *http.Client
}

// startServer execs stserve over storeDir and waits for its first /readyz
// 200, returning the time from exec to ready.
func (b *bench) startServer(storeDir string, env []string) (*server, time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	s := &server{base: "http://" + addr, client: &http.Client{
		Timeout: execTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: serveConns,
			MaxConnsPerHost:     serveConns,
			DisableCompression:  true,
		},
	}}
	s.cmd = exec.Command(filepath.Join(b.bin, "stserve"), "-addr", addr, "-store", storeDir,
		"-n", fmt.Sprint(serveN), "-cache-entries", fmt.Sprint(cacheEntries), "-drain", "5s")
	s.cmd.Env = append(os.Environ(), env...)
	s.cmd.Stderr = &s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("stserve: %v", err)
	}
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("stserve not ready after 30s: %s", lastLine(s.stderr.Bytes()))
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		err = <-done
	}
	if err != nil {
		return fmt.Errorf("stserve exit: %v: %s", err, lastLine(s.stderr.Bytes()))
	}
	return nil
}

// peakRSSKB reads the running server's peak RSS (VmHWM) in KB.
func (s *server) peakRSSKB() (int64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("stserve: no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// get issues one request and returns status and body.
func (s *server) get(path string) (int, []byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// requestPath renders a planned request's URL path and query.
func requestPath(r request, refs *serveRefs) string {
	if !r.Compute {
		return "/v1/point?" + r.Ref.query()
	}
	spec := fleet.GridSpec{Exp: "all", N: r.Ref.N, Depth: 14, KB: 16}
	q := spec.Query()
	q.Set("grid", refs.gridIDs[r.Grid])
	q.Set("index", fmt.Sprint(r.Ref.Index))
	return "/v1/compute?" + q.Encode()
}

// batchStats is one batch's measurements.
type batchStats struct {
	wall              time.Duration
	readMs, computeMs []float64
	conflicts         int
}

// runBatch sends a batch through the closed loop, then checks every reply
// against the goldens. Paths are rendered before and replies checked after
// the timed loop, so the client's own work stays out of the measurement.
func (b *bench) runBatch(o *outcome, s *server, refs *serveRefs, batch []request, tr *tracer) batchStats {
	type reply struct {
		code int
		body []byte
		err  error
		ms   float64
	}
	paths := make([]string, len(batch))
	for i, r := range batch {
		paths[i] = requestPath(r, refs)
	}
	replies := make([]reply, len(batch))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		bs   batchStats
	)
	start := time.Now()
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batch) {
					return
				}
				kind := "serve.read"
				if batch[i].Compute {
					kind = "serve.compute"
				}
				sp := tr.begin(kind, 0, int64(i))
				t0 := time.Now()
				rp := &replies[i]
				rp.code, rp.body, rp.err = s.get(paths[i])
				rp.ms = float64(time.Since(t0)) / 1e6
				tr.end(sp)
			}
		}()
	}
	wg.Wait()
	bs.wall = time.Since(start)
	for i, rp := range replies {
		r := batch[i]
		err := rp.err
		if err == nil {
			err = b.checkReply(r, rp.code, rp.body)
		}
		o.attempted++
		switch {
		case err != nil:
			o.fail(1, err)
			if rp.code == http.StatusConflict {
				bs.conflicts++
			}
		case r.Compute:
			bs.computeMs = append(bs.computeMs, rp.ms)
		default:
			bs.readMs = append(bs.readMs, rp.ms)
		}
	}
	return bs
}

// checkReply validates one reply: 200, and the result bytes match the
// point's golden digest.
func (b *bench) checkReply(r request, code int, body []byte) error {
	kind := "read"
	if r.Compute {
		kind = "compute"
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: HTTP %d: %s", kind, r.Ref.name(), code, bytes.TrimSpace(body))
	}
	if !r.Compute {
		return b.gold.checkPayload(r.Ref, body)
	}
	var cr fleet.ComputeResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return fmt.Errorf("compute %s: decode reply: %v", r.Ref.name(), err)
	}
	if cr.Key != r.Ref.Key.String() {
		return fmt.Errorf("compute %s: reply is for key %s", r.Ref.name(), cr.Key)
	}
	codec, err := base64.StdEncoding.DecodeString(cr.ResultB64)
	if err != nil {
		return fmt.Errorf("compute %s: result_b64: %v", r.Ref.name(), err)
	}
	return b.gold.checkCodec(r.Ref, codec)
}

// fillServeStore fills a fresh store with the read grid by running the
// sweep driver over it, and checks the sweep and every stored entry.
func (b *bench) fillServeStore(o *outcome) (string, error) {
	dir, err := b.tempDir("serve-store-")
	if err != nil {
		return "", err
	}
	r, err := b.execDriver(nil, "hpca03", "-exp", "all", "-n", fmt.Sprint(serveN), "-store", dir)
	if err != nil {
		return "", err
	}
	if r.code != 0 {
		return "", fmt.Errorf("filling the store: hpca03 exited %d: %s", r.code, lastLine(r.stderr))
	}
	all, err := labelGrid(serveN)
	if err != nil {
		return "", err
	}
	o.attempted += len(all)
	if err := b.gold.checkStdout(serveN, r.stdout); err != nil {
		o.fail(len(all), err)
	} else {
		for _, err := range b.gold.checkStore(dir, all) {
			o.fail(1, err)
		}
	}
	return dir, nil
}

// runServe is the serve-mixed workload: fill the store, time serveStarts
// server start-ups, then send batches until seconds have passed.
func (b *bench) runServe(o *outcome, seconds int, seed int64) error {
	refs, err := loadServeRefs()
	if err != nil {
		return err
	}
	batches := planBatches(seed, refs)
	dir, err := b.fillServeStore(o)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var readies []float64
	var s *server
	for i := 0; i < serveStarts; i++ {
		var ready time.Duration
		if s, ready, err = b.startServer(dir, nil); err != nil {
			return err
		}
		readies = append(readies, ready.Seconds())
		if i < serveStarts-1 {
			if err := s.stop(); err != nil {
				return err
			}
		}
	}
	var walls []float64
	var rssKB int64
	start := time.Now()
	for _, batch := range batches {
		if len(walls) >= rssBatches && time.Since(start) >= time.Duration(seconds)*time.Second {
			break
		}
		walls = append(walls, b.runBatch(o, s, refs, batch, nil).wall.Seconds())
		if len(walls) == rssBatches {
			if rssKB, err = s.peakRSSKB(); err != nil {
				s.stop()
				return err
			}
		}
	}
	if err := s.stop(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d batches, wall_s %.3f\n", len(walls), walls)
	wall := median(walls)
	o.set("setup_s", "s", median(readies))
	o.set("wall_s", "s", wall)
	o.set("sim_minst_per_s", "Minst/s", batchComputes*simInsts(serveN)/wall/1e6)
	o.set("req_per_s", "1/s", batchSize/wall)
	o.set("peak_rss_mb", "MB", float64(rssKB)/1024)
	return nil
}
