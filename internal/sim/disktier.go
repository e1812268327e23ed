package sim

// Disk tier plumbing: content addressing of the canonical cache key and the
// Result <-> store.Entry conversions. The store itself (framing, checksums,
// atomic writes, quarantine) lives in internal/store; this file is the only
// place that knows how a simulation point becomes a 256-bit address.

import (
	"crypto/sha256"
	"sync"

	"selthrottle/internal/prog"
	"selthrottle/internal/store"
)

// diskKeySchema versions the content address itself. It is hashed into
// every key, so changing the canonicalization rules, the shape of Config or
// Profile, or the meaning of any field only requires bumping this string:
// old entries become unreachable (cold cache, recomputed and republished
// under the new schema), never wrongly served. Such a change also moves the
// golden keys in testdata/pointkeys.tsv; regenerate them with
// `go test ./internal/sim -run TestPointKeysGolden -update` in the same
// change, and note the regeneration in CHANGES.md.
//
// Under v1 the hashed bytes are defined as fmt's %#v rendering (see
// diskKeyOf). keyrender.go produces them without fmt, and the tests named
// at diskKeyOf hold it to fmt's bytes, so every v1 store stays valid.
const diskKeySchema = "selthrottle/resultcache/key/v1"

// diskKeyOf content-addresses a canonical cache key: the SHA-256 of
//
//	diskKeySchema NUL %#v(canonical Config) NUL %#v(canonical Profile)
//
// The %#v rendering of the two canonicalized value structs is a
// deterministic, unambiguous serialization: both are plain comparable Go
// values (no pointers, no maps; the one interface field, Pipe.Fault, is
// always nil for cacheable configs — runCachedE bypasses both tiers for
// faulted runs), every field prints exactly, and the NUL separator keeps
// the pair unambiguous.
//
// The renderings come from the plan renderer in keyrender.go, which
// produces fmt's %#v bytes without reflecting on every call, and the
// Profile's from a small memo on top of it. Two tests pin the bytes:
// testdata/pointkeys.tsv fixes the key of every grid point of `-exp all`
// and `-exp ablation`, and keyrender_test.go compares the rendering with
// fmt's for the grids at several scales and under FuzzKeyRendering.
func diskKeyOf(key cacheKey) store.Key {
	s := keyScratches.Get().(*keyScratch)
	s.key = key
	b := append(s.buf[:0], diskKeySchema...)
	b = append(b, 0)
	b = appendGoSyntax(b, &s.key.cfg)
	b = append(b, 0)
	b = profileKeyText.append(b, &s.key.profile)
	k := store.Key(sha256.Sum256(b))
	s.buf, s.key = b, cacheKey{}
	keyScratches.Put(s)
	return k
}

// keyScratch is diskKeyOf's reusable working state: the rendering buffer
// (about 1.6 KB) and a copy of the key to render from. Rendering through
// a pointer into diskKeyOf's own argument would move every key to the
// heap, because the renderer's rare fmt fallback hands its input to
// reflect.
type keyScratch struct {
	buf []byte
	key cacheKey
}

var keyScratches = sync.Pool{New: func() any { return &keyScratch{buf: make([]byte, 0, 2048)} }}

// profileKeyText memoizes the rendered canonical Profile, whose floats are
// the costliest part of a key: a sweep keys hundreds of configurations
// against a handful of profiles. Bounded, so a process that keys many
// profiles (calibration, fuzzing) just renders them again.
var profileKeyText = keyMemo[prog.Profile]{max: 64}

// resultEntry strips a Result to its persisted payload. Config and
// Benchmark are deliberately dropped: they are the lookup key's identity,
// rewritten onto the Result on the way out of every tier.
func resultEntry(r *Result) store.Entry {
	return store.Entry{
		Stats:    r.Stats,
		Power:    r.Power,
		IPC:      r.IPC,
		MissRate: r.MissRate,
		Seconds:  r.Seconds,
		Energy:   r.Energy,
		EDelay:   r.EDelay,
		AvgPower: r.AvgPower,
	}
}

// entryResult rebuilds a Result from its persisted payload; the caller
// stamps Config and Benchmark.
func entryResult(e *store.Entry) Result {
	return Result{
		Stats:    e.Stats,
		Power:    e.Power,
		IPC:      e.IPC,
		MissRate: e.MissRate,
		Seconds:  e.Seconds,
		Energy:   e.Energy,
		EDelay:   e.EDelay,
		AvgPower: e.AvgPower,
	}
}

// UseDiskStore opens (creating if necessary) the persistent result store at
// dir and attaches it as the process-wide cache's disk tier. The open runs
// the store's recovery scan, so a directory holding torn or corrupt entries
// — a previous process killed mid-write — opens cleanly with the damage
// quarantined. Returns the number of entries available.
func UseDiskStore(dir string) (entries int, err error) {
	st, err := store.Open(dir, nil)
	if err != nil {
		return 0, err
	}
	processCache.SetDisk(st)
	return st.Len(), nil
}

// AttachDiskStore attaches an already-open store (possibly on an injected
// fault FS) as the process-wide cache's disk tier; nil detaches. Returns
// the previous store. Tests and services that manage their own store
// lifecycle use this; UseDiskStore is the one-call path.
func AttachDiskStore(st *store.Store) (previous *store.Store) {
	return processCache.SetDisk(st)
}

// DiskStore returns the process-wide cache's attached disk tier, if any —
// the handle the commands use to configure store-level policy (quarantine
// warnings) after UseDiskStore.
func DiskStore() *store.Store { return processCache.Disk() }
