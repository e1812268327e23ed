package main

// Golden outputs. The simulator is a pure function of (Config, Profile), so
// every byte a workload checks is fixed by the code alone: the SHA-256 of
// `hpca03 -exp all` stdout at each scale the benchmark runs, and per grid
// point the SHA-256 of the store codec bytes plus, where the point is
// addressable through stserve's /v1/point, the SHA-256 of that endpoint's
// result payload. Nothing else is hashed: never timings, paths, PIDs,
// stderr, the `worker`, `attempts` or `stolen` fields, or /statsz uptime.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"selthrottle/internal/prog"
	"selthrottle/internal/sim"
	"selthrottle/internal/store"
)

// gridExps is the experiment order of `hpca03 -exp all`; a point's label
// names the first of these that enumerates it.
var gridExps = []string{"table2", "table1", "conf", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7"}

// pointRef is one grid point of `-exp all` at one instruction count, with
// the /v1/point query that addresses it (empty ID when none does, as for
// the JRS confidence run).
type pointRef struct {
	N       uint64
	Index   int // position in sim.EnumerateGrid order
	Key     store.Key
	Label   string // "<exp>/<experiment id>[@depth=D|@kb=K]"
	Bench   string
	Point   sim.GridPoint
	ID      string // /v1/point id parameter
	Depth   int
	KB      int
	Addable bool // addressable through /v1/point
}

// name identifies a point in failure messages: key, experiment, benchmark.
func (p pointRef) name() string {
	return fmt.Sprintf("point %s (%s, %s, n=%d)", p.Key, p.Label, p.Bench, p.N)
}

// query renders the point's /v1/point parameters.
func (p pointRef) query() string {
	return fmt.Sprintf("bench=%s&id=%s&n=%d&depth=%d&kb=%d", p.Bench, p.ID, p.N, p.Depth, p.KB)
}

// labelGrid enumerates `-exp all` at n and labels every point. It fails if
// the labelled set and sim.EnumerateGrid disagree, so a grid change shows
// here instead of as a silent digest mismatch.
func labelGrid(n uint64) ([]pointRef, error) {
	opts := sim.Options{Instructions: n}
	pts, err := sim.EnumerateGrid("all", "", opts)
	if err != nil {
		return nil, err
	}
	label := map[store.Key]string{}
	for _, exp := range gridExps {
		sub, err := sim.EnumerateGrid(exp, "", opts)
		if err != nil {
			return nil, err
		}
		for _, g := range sub {
			if _, ok := label[g.Key()]; !ok {
				label[g.Key()] = exp
			}
		}
	}
	type q struct {
		id        string
		depth, kb int
		suffix    string
	}
	ids := []string{"baseline"}
	for _, list := range [][]sim.Experiment{sim.OracleExperiments(), sim.FetchExperiments(), sim.DecodeExperiments(), sim.SelectionExperiments()} {
		for _, e := range list {
			ids = append(ids, e.ID)
		}
	}
	var qs []q
	for _, id := range ids {
		qs = append(qs, q{id, 14, 16, ""})
	}
	for d := 6; d <= 28; d += 2 {
		for _, id := range []string{"baseline", sim.BestExperiment().ID} {
			qs = append(qs, q{id, d, 16, fmt.Sprintf("@depth=%d", d)})
		}
	}
	for _, kb := range []int{8, 32, 64} {
		for _, id := range []string{"baseline", sim.BestExperiment().ID} {
			qs = append(qs, q{id, 14, kb, fmt.Sprintf("@kb=%d", kb)})
		}
	}
	addr := map[store.Key]q{}
	for _, p := range prog.Profiles() {
		for _, qq := range qs {
			o := sim.Options{Instructions: n, Depth: qq.depth, PredBytes: qq.kb * 1024 / 2, ConfBytes: qq.kb * 1024 / 2}
			cfg := o.BaseConfig()
			if qq.id != "baseline" {
				e, ok := sim.ExperimentByID(qq.id)
				if !ok {
					return nil, fmt.Errorf("unknown experiment id %q", qq.id)
				}
				cfg = e.Apply(cfg)
			}
			k := sim.PointKey(cfg, p)
			if _, ok := addr[k]; !ok {
				addr[k] = qq
			}
		}
	}
	refs := make([]pointRef, len(pts))
	for i, g := range pts {
		k := g.Key()
		exp, ok := label[k]
		if !ok {
			return nil, fmt.Errorf("grid point %s belongs to no experiment of -exp all", k)
		}
		r := pointRef{N: n, Index: i, Key: k, Bench: g.Profile.Name, Point: g}
		if qq, ok := addr[k]; ok {
			r.ID, r.Depth, r.KB, r.Addable = qq.id, qq.depth, qq.kb, true
			r.Label = exp + "/" + qq.id + qq.suffix
		} else {
			r.Label = exp + "/" + string(g.Cfg.Estimator)
		}
		refs[i] = r
	}
	return refs, nil
}

// pointGolden is one point's digests from points.tsv. The file's label and
// bench columns are for readers; failure messages take them from
// labelGrid.
type pointGolden struct {
	Codec   string // SHA-256 of the store codec bytes
	Payload string // SHA-256 of the /v1/point result payload, "-" if unaddressed
}

type pointID struct {
	N   uint64
	Key store.Key
}

// golden is the loaded golden set.
type golden struct {
	stdout map[uint64]string
	points map[pointID]pointGolden
}

const (
	stdoutFile = "stdout.tsv"
	pointsFile = "points.tsv"
)

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// loadGolden reads the golden directory.
func loadGolden(dir string) (*golden, error) {
	g := &golden{stdout: map[uint64]string{}, points: map[pointID]pointGolden{}}
	err := readTSV(filepath.Join(dir, stdoutFile), 2, func(f []string) error {
		n, err := strconv.ParseUint(f[0], 10, 64)
		g.stdout[n] = f[1]
		return err
	})
	if err != nil {
		return nil, err
	}
	err = readTSV(filepath.Join(dir, pointsFile), 6, func(f []string) error {
		n, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return err
		}
		k, ok := store.ParseKey(f[1])
		if !ok {
			return fmt.Errorf("bad key %q", f[1])
		}
		g.points[pointID{n, k}] = pointGolden{Codec: f[4], Payload: f[5]}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

func readTSV(path string, fields int, row func([]string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if t := sc.Text(); t != "" && !strings.HasPrefix(t, "#") {
			fs := strings.Split(t, "\t")
			if len(fs) != fields {
				return fmt.Errorf("golden: %s:%d: want %d fields, have %d", path, line, fields, len(fs))
			}
			if err := row(fs); err != nil {
				return fmt.Errorf("golden: %s:%d: %w", path, line, err)
			}
		}
	}
	return sc.Err()
}

// checkStdout compares a sweep's stdout with the golden hash for n.
func (g *golden) checkStdout(n uint64, out []byte) error {
	want, ok := g.stdout[n]
	if !ok {
		return fmt.Errorf("no golden stdout for n=%d", n)
	}
	if got := sha(out); got != want {
		return fmt.Errorf("hpca03 -exp all -n %d stdout sha256 %s, golden %s", n, got, want)
	}
	return nil
}

// checkCodec compares one point's codec bytes with its golden digest.
func (g *golden) checkCodec(p pointRef, codec []byte) error {
	want, ok := g.points[pointID{p.N, p.Key}]
	if !ok {
		return fmt.Errorf("%s: no golden digest", p.name())
	}
	if got := sha(codec); got != want.Codec {
		return fmt.Errorf("%s: codec sha256 %s, golden %s", p.name(), got, want.Codec)
	}
	return nil
}

// checkPayload compares one /v1/point response body with its golden digest.
func (g *golden) checkPayload(p pointRef, body []byte) error {
	want, ok := g.points[pointID{p.N, p.Key}]
	if !ok || want.Payload == "-" {
		return fmt.Errorf("%s: no golden /v1/point digest", p.name())
	}
	got, err := payloadDigest(body)
	if err != nil {
		return fmt.Errorf("%s: %v", p.name(), err)
	}
	if got != want.Payload {
		return fmt.Errorf("%s: /v1/point payload sha256 %s, golden %s", p.name(), got, want.Payload)
	}
	return nil
}

// payloadDigest hashes a /v1/point body without its `attempts` field (the
// supervisor's retry count, not part of the result). json.Marshal sorts map
// keys and compacts raw values, so the digest ignores formatting.
func payloadDigest(body []byte) (string, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		return "", fmt.Errorf("decode /v1/point body: %v", err)
	}
	delete(m, "attempts")
	b, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	return sha(b), nil
}

// storeEntryPath is where store.Put publishes a key under dir.
func storeEntryPath(dir string, k store.Key) string {
	name := k.String()
	return filepath.Join(dir, name[:2], name+store.EntrySuffix)
}

// checkStore compares every point's published entry under dir with its
// golden codec digest; a missing entry is a failure too. It returns one
// error per failed point.
func (g *golden) checkStore(dir string, refs []pointRef) []error {
	var errs []error
	for _, p := range refs {
		data, err := os.ReadFile(storeEntryPath(dir, p.Key))
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %v", p.name(), err))
			continue
		}
		if err := g.checkCodec(p, data); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// writeGolden writes the golden directory from computed digests.
func writeGolden(dir string, stdout map[uint64]string, refs []pointRef, codec map[pointID]string, payload map[pointID]string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var sb strings.Builder
	sb.WriteString("# n\tsha256 of `hpca03 -exp all -n <n>` stdout\n")
	ns := make([]uint64, 0, len(stdout))
	for n := range stdout {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	for _, n := range ns {
		fmt.Fprintf(&sb, "%d\t%s\n", n, stdout[n])
	}
	if err := os.WriteFile(filepath.Join(dir, stdoutFile), []byte(sb.String()), 0o644); err != nil {
		return err
	}
	sb.Reset()
	sb.WriteString("# n\tkey\tlabel\tbench\tcodec sha256\t/v1/point payload sha256 (- = not addressable)\n")
	for _, p := range refs {
		id := pointID{p.N, p.Key}
		pl := payload[id]
		if pl == "" {
			pl = "-"
		}
		fmt.Fprintf(&sb, "%d\t%s\t%s\t%s\t%s\t%s\n", p.N, p.Key, p.Label, p.Bench, codec[id], pl)
	}
	return os.WriteFile(filepath.Join(dir, pointsFile), []byte(sb.String()), 0o644)
}
