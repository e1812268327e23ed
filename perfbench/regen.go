package main

import (
	"fmt"
	"os"
)

// regenGolden recomputes every golden digest from the current code. Each
// scale's sweep runs three times and once under GOMAXPROCS=1, each over a
// fresh store, and /v1/point is read from two servers, one under
// GOMAXPROCS=1; any disagreement between them is an error, so only
// deterministic bytes become goldens.
func (b *bench) regenGolden(dir string) error {
	stdout := map[uint64]string{}
	codec := map[pointID]string{}
	payload := map[pointID]string{}
	var all []pointRef
	envs := [][]string{nil, nil, nil, {"GOMAXPROCS=1"}}
	for k := 0; k <= computeGrids+1; k++ {
		n := serveN + uint64(k)
		if k == computeGrids+1 {
			n = sweepN
		}
		refs, err := labelGrid(n)
		if err != nil {
			return err
		}
		all = append(all, refs...)
		for i, env := range envs {
			sdir, err := b.tempDir("regen-")
			if err != nil {
				return err
			}
			r, err := b.execDriver(env, "hpca03", "-exp", "all", "-n", fmt.Sprint(n), "-store", sdir)
			if err != nil {
				return err
			}
			if r.code != 0 {
				return fmt.Errorf("hpca03 -n %d exited %d: %s", n, r.code, lastLine(r.stderr))
			}
			if err := agree(stdout, n, sha(r.stdout), i == 0, fmt.Sprintf("stdout at n=%d", n)); err != nil {
				return err
			}
			for _, p := range refs {
				data, err := os.ReadFile(storeEntryPath(sdir, p.Key))
				if err != nil {
					return fmt.Errorf("%s: %v", p.name(), err)
				}
				if err := agree(codec, pointID{n, p.Key}, sha(data), i == 0, p.name()); err != nil {
					return err
				}
			}
			if err := os.RemoveAll(sdir); err != nil {
				return err
			}
		}
		r, err := b.execDriver(nil, "hpca03", "-exp", "all", "-n", fmt.Sprint(n))
		if err != nil {
			return err
		}
		if err := agree(stdout, n, sha(r.stdout), false, fmt.Sprintf("memory-only stdout at n=%d", n)); err != nil {
			return err
		}
	}

	refs, err := labelGrid(serveN)
	if err != nil {
		return err
	}
	for i, env := range envs[2:] {
		sdir, err := b.tempDir("regen-serve-")
		if err != nil {
			return err
		}
		if r, err := b.execDriver(nil, "hpca03", "-exp", "all", "-n", fmt.Sprint(serveN), "-store", sdir); err != nil || r.code != 0 {
			return fmt.Errorf("filling the serve store: code %d, %v", r.code, err)
		}
		s, _, err := b.startServer(sdir, env)
		if err != nil {
			return err
		}
		for _, p := range refs {
			if !p.Addable {
				continue
			}
			code, body, err := s.get("/v1/point?" + p.query())
			if err == nil && code != 200 {
				err = fmt.Errorf("HTTP %d", code)
			}
			var d string
			if err == nil {
				d, err = payloadDigest(body)
			}
			if err == nil {
				err = agree(payload, pointID{serveN, p.Key}, d, i == 0, p.name())
			}
			if err != nil {
				s.stop()
				return fmt.Errorf("%s: /v1/point: %v", p.name(), err)
			}
		}
		if err := s.stop(); err != nil {
			return err
		}
	}
	return writeGolden(dir, stdout, all, codec, payload)
}

// agree records v under k on the first sample and otherwise requires it
// to match what was recorded.
func agree[K comparable](m map[K]string, k K, v string, first bool, what string) error {
	if first {
		m[k] = v
		return nil
	}
	if m[k] != v {
		return fmt.Errorf("%s is not deterministic: %s vs %s", what, m[k], v)
	}
	return nil
}
