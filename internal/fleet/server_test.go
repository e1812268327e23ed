package fleet

import (
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"selthrottle/internal/grid"
	"selthrottle/internal/sim"
	"selthrottle/internal/store"
)

// testSpec builds a tiny one-benchmark grid. Varying n keeps each test's
// points distinct, so the process-wide result cache never carries state
// from one test into another's assertions.
func testSpec(n uint64) GridSpec {
	return GridSpec{Exp: "run", ID: "C2", N: n, Warmup: n / 4, Depth: 14, KB: 16, Bench: "gzip"}
}

// attachTestStore attaches a fresh disk store for the test and restores the
// previous one afterwards. Returns the store and its directory (which the
// lease manager shares).
func attachTestStore(t *testing.T) (*store.Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, nil)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	prev := sim.AttachDiskStore(st)
	t.Cleanup(func() { sim.AttachDiskStore(prev) })
	return st, dir
}

func specPoints(t *testing.T, spec GridSpec) []sim.GridPoint {
	t.Helper()
	opts, err := spec.SimOptions()
	if err != nil {
		t.Fatalf("SimOptions: %v", err)
	}
	pts, err := sim.EnumerateGrid(spec.Exp, spec.ID, opts)
	if err != nil {
		t.Fatalf("EnumerateGrid: %v", err)
	}
	if len(pts) == 0 {
		t.Fatal("empty test grid")
	}
	return pts
}

func computeURL(spec GridSpec, gridID string, index int, steal bool) string {
	q := spec.Query()
	if gridID != "" {
		q.Set("grid", gridID)
	}
	q.Set("index", strconv.Itoa(index))
	if steal {
		q.Set("steal", "1")
	}
	return "/v1/compute?" + q.Encode()
}

func serveCompute(t *testing.T, cs *ComputeServer, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	cs.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

// TestComputeServerHappyPath: a valid request computes the point, publishes
// it to the shared store, and returns the Result as exact codec bytes.
func TestComputeServerHappyPath(t *testing.T) {
	st, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6010)
	pts := specPoints(t, spec)
	cs := &ComputeServer{Leases: leases, Owner: "w-test"}

	rec := serveCompute(t, cs, computeURL(spec, grid.ID(pts), 0, false))
	if rec.Code != 200 {
		t.Fatalf("compute: %d %s", rec.Code, rec.Body.String())
	}
	var resp ComputeResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Key != pts[0].Key().String() || resp.Worker != "w-test" || resp.Stolen {
		t.Fatalf("response = %+v", resp)
	}
	raw, err := base64.StdEncoding.DecodeString(resp.ResultB64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.DecodeResultEntry(raw)
	if err != nil {
		t.Fatalf("wire bytes do not round-trip the store codec: %v", err)
	}
	if res.IPC <= 0 {
		t.Fatalf("decoded result has no IPC: %+v", res)
	}
	if !st.Has(pts[0].Key()) {
		t.Fatal("computed point was not published to the shared store")
	}
	if s := cs.Stats(); s.Served != 1 || s.Conflicts != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestComputeServerRejections: malformed or mismatched requests map to the
// right status codes — 400 for bad parameters, 412 for grid disagreement,
// 503 while not ready.
func TestComputeServerRejections(t *testing.T) {
	attachTestStore(t)
	spec := testSpec(6020)
	pts := specPoints(t, spec)
	gridID := grid.ID(pts)
	cs := &ComputeServer{Owner: "w-test", MaxN: 1_000_000}

	for _, tc := range []struct {
		name string
		url  string
		want int
	}{
		{"missing exp", "/v1/compute?index=0", 400},
		{"bad n", "/v1/compute?exp=run&id=C2&n=zap&depth=14&kb=16&index=0", 400},
		{"depth out of range", "/v1/compute?exp=run&id=C2&n=6020&depth=99&kb=16&index=0", 400},
		{"unknown experiment id", "/v1/compute?exp=run&id=zzz&n=6020&depth=14&kb=16&index=0", 400},
		{"over instruction ceiling", "/v1/compute?exp=run&id=C2&n=99999999&depth=14&kb=16&index=0", 400},
		{"index out of bounds", computeURL(spec, gridID, len(pts), false), 400},
		{"negative index", computeURL(spec, gridID, -1, false), 400},
		{"grid mismatch", computeURL(spec, "feedfeedfeed", 0, false), 412},
	} {
		if rec := serveCompute(t, cs, tc.url); rec.Code != tc.want {
			t.Fatalf("%s: %d, want %d (%s)", tc.name, rec.Code, tc.want, rec.Body.String())
		}
	}

	cs.Ready = func() bool { return false }
	rec := serveCompute(t, cs, computeURL(spec, gridID, 0, false))
	if rec.Code != 503 || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("draining: %d, want 503 + Retry-After", rec.Code)
	}
}

// TestComputeServerLeaseConflictAndSteal: a held point lease yields 409 +
// Retry-After; steal=1 fences the holder off (its next Beat fails ErrLost)
// and serves the point.
func TestComputeServerLeaseConflictAndSteal(t *testing.T) {
	_, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6030)
	pts := specPoints(t, spec)
	gridID := grid.ID(pts)
	cs := &ComputeServer{Leases: leases, Owner: "w-test"}

	held, err := leases.ClaimPoint(gridID, pts[0].Key(), "straggler", false)
	if err != nil {
		t.Fatalf("ClaimPoint: %v", err)
	}

	rec := serveCompute(t, cs, computeURL(spec, gridID, 0, false))
	if rec.Code != 409 || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("held lease: %d, want 409 + Retry-After", rec.Code)
	}
	if s := cs.Stats(); s.Conflicts != 1 {
		t.Fatalf("stats = %+v, want 1 conflict", s)
	}

	rec = serveCompute(t, cs, computeURL(spec, gridID, 0, true))
	if rec.Code != 200 {
		t.Fatalf("steal: %d %s", rec.Code, rec.Body.String())
	}
	var resp ComputeResponse
	json.NewDecoder(rec.Body).Decode(&resp)
	if !resp.Stolen {
		t.Fatalf("response = %+v, want Stolen", resp)
	}
	if err := held.Beat(); err == nil {
		t.Fatal("fenced-off holder's Beat still succeeds")
	}
	if s := cs.Stats(); s.Steals != 1 {
		t.Fatalf("stats = %+v, want 1 steal", s)
	}
}

// TestComputeServerFastPathSkipsLease: a published point is served without
// touching its lease — even a held lease does not block a store hit.
func TestComputeServerFastPathSkipsLease(t *testing.T) {
	_, dir := attachTestStore(t)
	leases, err := grid.NewManager(dir, nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(6040)
	pts := specPoints(t, spec)
	gridID := grid.ID(pts)
	cs := &ComputeServer{Leases: leases, Owner: "w-test"}

	// Publish the point, then hold its lease as a third party.
	if rec := serveCompute(t, cs, computeURL(spec, gridID, 0, false)); rec.Code != 200 {
		t.Fatalf("publish: %d", rec.Code)
	}
	if _, err := leases.ClaimPoint(gridID, pts[0].Key(), "other", false); err != nil {
		t.Fatalf("ClaimPoint: %v", err)
	}
	if rec := serveCompute(t, cs, computeURL(spec, gridID, 0, false)); rec.Code != 200 {
		t.Fatalf("published point behind a held lease: %d, want 200", rec.Code)
	}
}

// TestComputeServerAdmission: the host's admission hook runs and its
// rejection short-circuits the compute.
func TestComputeServerAdmission(t *testing.T) {
	attachTestStore(t)
	spec := testSpec(6050)
	pts := specPoints(t, spec)
	admitted, released := 0, 0
	cs := &ComputeServer{
		Owner: "w-test",
		Admit: func(w http.ResponseWriter) (func(), bool) {
			admitted++
			if admitted > 1 {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "shed", http.StatusTooManyRequests)
				return nil, false
			}
			return func() { released++ }, true
		},
	}
	if rec := serveCompute(t, cs, computeURL(spec, grid.ID(pts), 0, false)); rec.Code != 200 {
		t.Fatalf("admitted request: %d", rec.Code)
	}
	if rec := serveCompute(t, cs, computeURL(spec, grid.ID(pts), 0, false)); rec.Code != 429 {
		t.Fatalf("shed request: %d, want 429", rec.Code)
	}
	if released != 1 {
		t.Fatalf("release ran %d times, want 1", released)
	}
}

// TestGridSpecRoundTrip: a spec survives the wire — it encodes into the
// query and parses back identically, so a fleet worker enumerates exactly
// the coordinator's grid.
func TestGridSpecRoundTrip(t *testing.T) {
	spec := testSpec(6300)
	back, err := gridSpecFrom(spec.Query())
	if err != nil {
		t.Fatalf("gridSpecFrom: %v", err)
	}
	if back != spec {
		t.Fatalf("spec did not round-trip: got %+v, want %+v", back, spec)
	}
}

func TestNormalizeBase(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"localhost:8080", "http://localhost:8080"},
		{"http://w0:9999", "http://w0:9999"},
		{"http://w0:9999/some/path?q=1", "http://w0:9999"},
		{"https://w0", "https://w0"},
	} {
		got, err := normalizeBase(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("normalizeBase(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "http://"} {
		if _, err := normalizeBase(bad); err == nil {
			t.Fatalf("normalizeBase(%q) succeeded", bad)
		}
	}
}
