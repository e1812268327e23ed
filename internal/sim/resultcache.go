package sim

import (
	"container/list"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"unsafe"

	"selthrottle/internal/conf"
	"selthrottle/internal/core"
	"selthrottle/internal/pipe"
	"selthrottle/internal/prog"
	"selthrottle/internal/store"
)

// This file implements the memoizing result cache behind the experiment
// drivers. Simulation is a pure function of (Config, Profile) — determinism
// tests enforce it — so a Result computed once is valid for the whole
// process. Figures, sweeps, tables, the confidence harness, the ablations,
// and the calibration loop all overlap heavily (every figure shares the same
// baseline grid, A7/B9/C7 are one configuration, the depth-14 sweep point is
// the figure-5 cell, the BPRU confidence run is the baseline), so a shared
// cache removes entire re-simulations rather than shaving cycles.
//
// Keys are canonicalized: fields that provably cannot influence the
// simulation (policy names, the gating threshold of a non-gating policy, the
// JRS threshold of a BPRU run, the paper-reported calibration targets of a
// profile) are normalized away so cosmetically different descriptions of the
// same machine share one entry. The cached Result is rewritten with the
// caller's exact Config and profile name on the way out, so callers cannot
// observe the normalization.
//
// The cache is tiered: memory → disk → compute. The in-memory tier is a
// bounded LRU (a long-lived server cannot grow without limit); the optional
// disk tier (internal/store, attached with SetDisk / UseDiskStore) persists
// results across processes under the same canonical key, content-addressed
// by SHA-256 (see disktier.go). Disk failures never fail a request: a read
// error or write error is counted and the point is computed (or stays
// memory-only), so the worst a broken disk can do is cost recomputation.

// cacheKey identifies one simulation point. Config and Profile are plain
// comparable value types, so the key needs no serialization.
type cacheKey struct {
	cfg     Config
	profile prog.Profile
}

// cacheEntry is a single-flight slot: the requester that creates it (the
// leader) computes the point and closes done; later requesters for the same
// point block on done and then read res/err. Failure semantics matter here:
// a failed or panicked run must never be memoized (the leader unpublishes
// the entry before releasing its waiters, so the next requester recomputes),
// and every waiter on an erroring leader receives the leader's error
// promptly rather than hanging or silently reading a zero Result — the exact
// hazards of the previous sync.Once design, which marked the once done even
// when the compute panicked.
type cacheEntry struct {
	key  cacheKey
	done chan struct{}
	res  Result
	err  error

	// elem is the entry's slot in the LRU recency list, nil while the
	// leader is still computing (an in-flight entry is not evictable: its
	// waiters must always be released by its leader, never by an evictor).
	elem *list.Element
}

// DefaultCacheEntries is the in-memory tier's default entry cap. A cached
// entry is a few kilobytes (Result + key), so the default bounds the tier
// at roughly cacheEntryBytes * DefaultCacheEntries ≈ tens of megabytes —
// far above any figure grid, small enough for a long-lived server.
const DefaultCacheEntries = 8192

// cacheEntryBytes is the approximate in-memory footprint of one cached
// point (entry struct + its map/list bookkeeping), used for the byte-based
// limit and for reporting.
const cacheEntryBytes = int64(unsafe.Sizeof(cacheEntry{}) + unsafe.Sizeof(cacheKey{}) + 128)

// ResultCache memoizes Results by canonicalized (Config, Profile). It is
// safe for concurrent use; concurrent requests for the same point simulate
// it once. The in-memory tier holds at most limit completed entries,
// evicting least-recently-used points (an evicted point costs a disk read
// or a recomputation, never correctness).
type ResultCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	lru     *list.List // of *cacheEntry; front = most recently used
	limit   int        // max completed entries; <= 0 = unbounded

	disk atomic.Pointer[store.Store]

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	diskHits  atomic.Uint64
	diskPuts  atomic.Uint64
	diskErrs  atomic.Uint64
}

// NewResultCache returns an empty cache bounded at DefaultCacheEntries.
func NewResultCache() *ResultCache {
	return &ResultCache{
		entries: map[cacheKey]*cacheEntry{},
		lru:     list.New(),
		limit:   DefaultCacheEntries,
	}
}

// SetLimit bounds the in-memory tier to at most n completed entries (<= 0 =
// unbounded), evicting immediately if the cache is already over the new
// limit, and returns the previous limit.
func (c *ResultCache) SetLimit(n int) (previous int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	previous = c.limit
	c.limit = n
	c.evictOverLimitLocked()
	return previous
}

// SetLimitBytes bounds the in-memory tier by approximate footprint instead
// of entry count, converting via the fixed per-entry estimate.
func (c *ResultCache) SetLimitBytes(bytes int64) (previousEntries int) {
	n := int(bytes / cacheEntryBytes)
	if bytes > 0 && n < 1 {
		n = 1
	}
	return c.SetLimit(n)
}

// evictOverLimitLocked drops least-recently-used completed entries until
// the tier is within limit. Callers hold mu.
func (c *ResultCache) evictOverLimitLocked() {
	if c.limit <= 0 {
		return
	}
	for c.lru.Len() > c.limit {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		e.elem = nil
		delete(c.entries, e.key)
		c.evictions.Add(1)
	}
}

// publishLocked marks a completed entry resident: it joins the LRU list and
// the tier evicts past its bound. Callers hold mu.
func (c *ResultCache) publishLocked(e *cacheEntry) {
	if c.entries[e.key] != e {
		return // unpublished (cleared) while computing; do not resurrect
	}
	e.elem = c.lru.PushFront(e)
	c.evictOverLimitLocked()
}

// canonicalConfig zeroes the Config fields that cannot influence simulation:
// the policy's display name, the specs a gating policy ignores, the gate
// threshold a selective policy ignores, and the JRS threshold of a non-JRS
// estimator (including normalizing the empty estimator kind to its BPRU
// default).
func canonicalConfig(cfg Config) Config {
	cfg.Policy.Name = ""
	// The zero deadlock threshold and its explicit default are the same
	// machine, so they share one entry. Other values keep distinct entries:
	// a tightened threshold changes abort semantics (a stress run expects
	// its fail-fast panic even when a laxer run of the same point already
	// completed and was cached).
	if cfg.Pipe.StuckCycles == pipe.DefaultStuckCycles {
		cfg.Pipe.StuckCycles = 0
	}
	if cfg.Policy.Gating {
		cfg.Policy.ByClass = [conf.NumClasses]core.Spec{}
	} else {
		cfg.Policy.GateThreshold = 0
	}
	if cfg.Estimator != EstJRS {
		cfg.Estimator = EstBPRU
		cfg.JRSThreshold = 0
	}
	return cfg
}

// canonicalProfile normalizes the calibration-override encodings (zero means
// default) and zeroes the paper-reported reference fields, which only feed
// reports and tests, never the generator.
func canonicalProfile(p prog.Profile) prog.Profile {
	p.NoiseScaleOverride = p.NoiseScale()
	p.HardFreqOverride = p.HardFreq()
	p.PaperInput = ""
	p.PaperMInsts, p.PaperMBranch = 0, 0
	p.PaperMissPct, p.TargetMissTol = 0, 0
	return p
}

// SetDisk attaches (or, with nil, detaches) a persistent store as the
// cache's second tier and returns the previous one. Entries already on disk
// serve memory misses without simulation; computed points are written
// through best-effort. The store's durability and corruption handling are
// its own (internal/store); from the cache's side every disk failure
// degrades to compute-through and increments the disk-error counter.
func (c *ResultCache) SetDisk(st *store.Store) (previous *store.Store) {
	return c.disk.Swap(st)
}

// Disk returns the attached disk tier, if any.
func (c *ResultCache) Disk() *store.Store { return c.disk.Load() }

// Run returns the memoized Result for (cfg, profile), simulating it on r at
// most once per cache lifetime. It is the legacy fail-fast wrapper around
// RunE: a terminal simulation failure is raised as a panic (in every waiter
// as well as the leader).
func (c *ResultCache) Run(r *Runner, cfg Config, profile prog.Profile) Result {
	res, err := c.RunE(context.Background(), r, cfg, profile)
	if err != nil {
		panic(err) // fail-fast: legacy contract, typed *RunError for Guard
	}
	return res
}

// RunE returns the memoized Result for (cfg, profile), checking the memory
// tier, then the disk tier, then simulating on r; concurrent requests for
// one point elect a leader and the rest wait. The returned Result carries
// the caller's exact cfg.
//
// Failure semantics: a failed run is never memoized in either tier — the
// leader removes the entry before releasing its waiters, so the point is
// recomputed on the next request — and each waiter receives the leader's
// error promptly. A waiter whose own ctx ends first returns its context
// error without waiting out the leader. Disk-tier failures (read or write)
// are counted and absorbed: the point is computed as if the disk were
// absent. Counters: the leader's simulation counts as a miss (successful or
// not); a disk-served leader counts as a disk hit; only successful waiters
// count as memory hits.
func (c *ResultCache) RunE(ctx context.Context, r *Runner, cfg Config, profile prog.Profile) (Result, error) {
	key := cacheKey{canonicalConfig(cfg), canonicalProfile(profile)}
	c.mu.Lock()
	e := c.entries[key]
	leader := false
	if e == nil {
		e = &cacheEntry{key: key, done: make(chan struct{})}
		c.entries[key] = e
		leader = true
	} else if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	}
	c.mu.Unlock()

	if leader {
		published := false
		defer func() {
			// Runs on success, error, and panic alike: on anything but a
			// published success, unpublish the entry and release the
			// waiters, so no failure is memoized and nobody blocks forever
			// — even if the compute panicked past RunE's own recovery.
			if published {
				return
			}
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
			if e.err == nil {
				e.err = fmt.Errorf("sim: cache leader for %s did not complete", profile.Name)
			}
			close(e.done)
		}()

		// Disk tier: a persisted point serves the memory miss without
		// simulation. Read errors degrade to compute; an entry the store
		// quarantines mid-flight is a plain miss.
		if d := c.disk.Load(); d != nil {
			if ent, ok, derr := d.Get(diskKeyOf(key)); derr != nil {
				c.diskErrs.Add(1)
			} else if ok {
				e.res = entryResult(&ent)
				c.mu.Lock()
				c.publishLocked(e)
				c.mu.Unlock()
				published = true
				close(e.done)
				c.diskHits.Add(1)
				res := e.res
				res.Config = cfg
				res.Benchmark = profile.Name
				return res, nil
			}
		}

		res, err := r.RunE(ctx, cfg, profile)
		c.misses.Add(1)
		if err != nil {
			e.err = err
			return Result{}, err // defer unpublishes and releases waiters
		}
		e.res = res
		c.mu.Lock()
		c.publishLocked(e)
		c.mu.Unlock()
		published = true
		close(e.done)
		// Write-through to the disk tier, best-effort: a failed persist is
		// a counted degradation (the result is already served from
		// memory), never an error to the caller. Failed runs never reach
		// this point, so the store only ever holds valid results.
		if d := c.disk.Load(); d != nil {
			ent := resultEntry(&res)
			if derr := d.Put(diskKeyOf(key), &ent); derr != nil {
				c.diskErrs.Add(1)
			} else {
				c.diskPuts.Add(1)
			}
		}
		res.Config = cfg
		res.Benchmark = profile.Name
		return res, nil
	}

	select {
	case <-e.done:
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	if e.err != nil {
		return Result{}, e.err
	}
	c.hits.Add(1)
	res := e.res
	res.Config = cfg
	res.Benchmark = profile.Name
	return res, nil
}

// Stats reports the cache's memory-tier hit and miss counts since
// construction (or the last Clear). Misses count simulations actually
// executed; disk-tier serves appear in TierStats, not here.
func (c *ResultCache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// CacheTierStats is a point-in-time view of every cache tier, the shape
// behind WriteCacheSummary and stserve's /statsz.
type CacheTierStats struct {
	MemHits     uint64      `json:"mem_hits"`
	MemMisses   uint64      `json:"mem_misses"` // simulations computed
	MemEntries  int         `json:"mem_entries"`
	MemLimit    int         `json:"mem_limit"`
	MemBytes    int64       `json:"mem_approx_bytes"`
	Evictions   uint64      `json:"evictions"`
	DiskEnabled bool        `json:"disk_enabled"`
	Disk        store.Stats `json:"disk"`
	DiskHits    uint64      `json:"disk_hits"`
	DiskPuts    uint64      `json:"disk_puts"`
	DiskErrors  uint64      `json:"disk_errors"` // counted degradations, never outages
}

// TierStats returns the cache's full tiered counters.
func (c *ResultCache) TierStats() CacheTierStats {
	c.mu.Lock()
	entries := len(c.entries)
	limit := c.limit
	c.mu.Unlock()
	ts := CacheTierStats{
		MemHits:    c.hits.Load(),
		MemMisses:  c.misses.Load(),
		MemEntries: entries,
		MemLimit:   limit,
		MemBytes:   int64(entries) * cacheEntryBytes,
		Evictions:  c.evictions.Load(),
		DiskHits:   c.diskHits.Load(),
		DiskPuts:   c.diskPuts.Load(),
		DiskErrors: c.diskErrs.Load(),
	}
	if d := c.disk.Load(); d != nil {
		ts.DiskEnabled = true
		ts.Disk = d.Stats()
	}
	return ts
}

// Len reports the number of memoized points resident in memory.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Clear drops every memory-tier entry and zeroes the statistics. The disk
// tier, if attached, is left intact (its entries remain valid across
// Clear; drop the directory to discard them).
func (c *ResultCache) Clear() {
	c.mu.Lock()
	c.entries = map[cacheKey]*cacheEntry{}
	c.lru = list.New()
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
	c.diskHits.Store(0)
	c.diskPuts.Store(0)
	c.diskErrs.Store(0)
}

// processCache is the process-wide cache every driver in this package (and
// every command built on it) shares.
var (
	processCache   = NewResultCache()
	cachingEnabled atomic.Bool
)

func init() { cachingEnabled.Store(true) }

// SetResultCaching enables or disables the process-wide result cache and
// returns the previous setting. Disabling is for measurements that must
// exercise the simulator itself (benchmarks); the cache
// never changes results, only whether they are recomputed.
func SetResultCaching(on bool) (previous bool) {
	return cachingEnabled.Swap(on)
}

// ResultCacheStats reports the process-wide cache's hit/miss counters.
func ResultCacheStats() (hits, misses uint64) { return processCache.Stats() }

// ResultCacheTierStats reports the process-wide cache's full tiered
// counters (memory tier, evictions, disk tier).
func ResultCacheTierStats() CacheTierStats { return processCache.TierStats() }

// SetResultCacheLimit bounds the process-wide cache's memory tier to n
// completed entries (<= 0 = unbounded) and returns the previous limit.
func SetResultCacheLimit(n int) (previous int) { return processCache.SetLimit(n) }

// ClearResultCache empties the process-wide cache (long-running processes
// exploring unbounded configuration spaces can bound memory with periodic
// clears; the LRU bound makes this optional rather than required).
func ClearResultCache() { processCache.Clear() }

// WriteCacheSummary prints the process-wide cache's reuse summary, for the
// drivers' -v flag.
func WriteCacheSummary(w io.Writer) {
	ts := processCache.TierStats()
	total := ts.MemHits + ts.MemMisses + ts.DiskHits
	pct := 0.0
	if total > 0 {
		pct = 100 * float64(ts.MemHits+ts.DiskHits) / float64(total)
	}
	fmt.Fprintf(w, "result cache: %d simulations served, %d mem hits / %d disk hits / %d computed (%.1f%% reuse), %d points held, %d evicted\n",
		total, ts.MemHits, ts.DiskHits, ts.MemMisses, pct, ts.MemEntries, ts.Evictions)
	if ts.DiskEnabled {
		fmt.Fprintf(w, "disk store: %d entries, %d puts, %d quarantined, %d read/write errors\n",
			ts.Disk.Entries, ts.DiskPuts, ts.Disk.Quarantined, ts.Disk.ReadErrors+ts.Disk.WriteErrors)
	}
}

// runCached is the fail-fast entry the legacy drivers use: it consults the
// process-wide cache unless caching is disabled, and panics on a terminal
// run failure.
func runCached(r *Runner, cfg Config, profile prog.Profile) Result {
	res, err := runCachedE(context.Background(), r, cfg, profile)
	if err != nil {
		panic(err) // fail-fast: legacy contract, typed *RunError for Guard
	}
	return res
}

// runCachedE is the supervised entry: it consults the process-wide cache
// unless caching is disabled or the configuration carries a fault-injection
// hook — a faulted run is impure by design (its outcome depends on the
// hook's state), so it must never be served from or admitted to the cache
// (in either tier).
func runCachedE(ctx context.Context, r *Runner, cfg Config, profile prog.Profile) (Result, error) {
	if !cachingEnabled.Load() || cfg.Pipe.Fault != nil {
		return r.RunE(ctx, cfg, profile)
	}
	return processCache.RunE(ctx, r, cfg, profile)
}
