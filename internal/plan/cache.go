package plan

import (
	"strconv"
	"sync"
	"sync/atomic"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/sqlast"
)

// Cache memoizes plans by canonical query text. It reproduces PostgreSQL's
// SPI plan cache as used by PL/pgSQL: embedded queries are *planned* once.
// PostgreSQL still *instantiates* them for every execution — the paper's
// point is that instantiation, not planning, dominates the f→Qi context
// switch; here each session keeps the instantiated trees too (exec.Pool).
//
// The cache is shared by all sessions of an engine and safe for concurrent
// use: the entry map is guarded by a readers-writer mutex and the hit/miss
// counters are atomic. Cached *Plan values are immutable once stored
// (executors only read them), so handing the same plan to many sessions
// at once is sound. The catalog is copy-on-write, so every
// lookup takes the caller's pinned catalog snapshot: a plan hits only if
// it was built against the same catalog version the caller sees, which
// both invalidates plans after DDL and keeps sessions pinned to an older
// snapshot from executing plans built against a newer schema. Two
// sessions missing on the same key may both plan; the duplicate work is
// benign and the last store wins.
type Cache struct {
	mu      sync.RWMutex
	entries map[string]*Plan
	enabled bool
	hits    atomic.Int64
	misses  atomic.Int64

	// Call-site specialization makes the key space per-constant-signature
	// (check('alice', $1) and check('bob', $1) cache as distinct texts), so
	// the cache is bounded: at maxEntries, storing evicts every entry whose
	// catalog version is stale, and failing that, clears outright — cheap,
	// and a full cache of live specialized plans is pathological enough
	// that restart-from-empty beats tracking LRU order on the hot path.
	evictions atomic.Int64

	// plansInlined / plansSpecialized accumulate the per-plan counters of
	// every plan built through the cache (the engine's stats surface).
	plansInlined     atomic.Int64
	plansSpecialized atomic.Int64
	plansLooped      atomic.Int64
}

// maxEntries caps the cache before eviction kicks in.
const maxEntries = 1024

// NewCache creates an enabled plan cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*Plan), enabled: true}
}

// SetEnabled toggles caching (ablation A4: with caching off, every embedded
// query evaluation pays full planning too).
func (c *Cache) SetEnabled(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enabled = on
	if !on {
		c.entries = make(map[string]*Plan)
	}
}

// Stats reports cache hits and misses.
func (c *Cache) Stats() (hits, misses int64) { return c.hits.Load(), c.misses.Load() }

// ResetStats zeroes the counters.
func (c *Cache) ResetStats() { c.hits.Store(0); c.misses.Store(0) }

// lookup returns the cached plan for key if it is valid against the
// caller's catalog snapshot, recording the hit/miss.
func (c *Cache) lookup(cat *catalog.Catalog, key string) (*Plan, bool) {
	c.mu.RLock()
	p, ok := c.entries[key]
	enabled := c.enabled
	c.mu.RUnlock()
	if !enabled {
		c.misses.Add(1)
		return nil, false
	}
	if ok && p.CatalogVersion == cat.Version {
		c.hits.Add(1)
		return p, true
	}
	c.misses.Add(1)
	return nil, false
}

// store records a freshly built plan unless caching is off, evicting when
// the specialization cap is hit.
func (c *Cache) store(key string, p *Plan) {
	c.mu.Lock()
	if c.enabled {
		if len(c.entries) >= maxEntries {
			evicted := 0
			for k, e := range c.entries {
				if e.CatalogVersion != p.CatalogVersion {
					delete(c.entries, k)
					evicted++
				}
			}
			if len(c.entries) >= maxEntries {
				evicted += len(c.entries)
				c.entries = make(map[string]*Plan)
			}
			c.evictions.Add(int64(evicted))
		}
		c.entries[key] = p
	}
	c.mu.Unlock()
}

// InvalidateStale drops every cached plan not built against version — the
// DDL hook for CREATE OR REPLACE FUNCTION / DROP FUNCTION: specialized and
// inlined plans embed the old body verbatim, so version-mismatch lookups
// failing is not enough once memory is at stake; the engine calls this
// after publishing a new catalog so stale bodies are gone, not just
// unreachable.
func (c *Cache) InvalidateStale(version int64) {
	c.mu.Lock()
	n := 0
	for k, e := range c.entries {
		if e.CatalogVersion != version {
			delete(c.entries, k)
			n++
		}
	}
	c.mu.Unlock()
	c.evictions.Add(int64(n))
}

// InlineStats reports cumulative inlined-call, specialized-call, and
// eviction counts across every plan built through the cache.
func (c *Cache) InlineStats() (inlined, specialized, evictions int64) {
	return c.plansInlined.Load(), c.plansSpecialized.Load(), c.evictions.Load()
}

// LoopStats reports how many recursive CTEs were lowered to Loop
// operators across every plan built through the cache.
func (c *Cache) LoopStats() int64 { return c.plansLooped.Load() }

// Get returns the cached plan for the query against the caller's catalog
// snapshot, planning (and caching) on miss. Plans invalidate automatically
// when the catalog version moves. With caching disabled it skips straight
// to Build — no deparse, so the A4 ablation measures planning cost, not
// key construction.
func (c *Cache) Get(cat *catalog.Catalog, q *sqlast.Query, opts Options) (*Plan, error) {
	c.mu.RLock()
	enabled := c.enabled
	c.mu.RUnlock()
	if !enabled {
		c.misses.Add(1)
		return Build(cat, q, opts)
	}
	key := sqlast.DeparseQuery(q)
	return c.GetByText(cat, key, q, opts)
}

// GetByText memoizes by a caller-provided key, avoiding the deparse on hot
// paths (the PL/pgSQL interpreter keys by statement identity). Plans built
// with passes skipped are keyed by the Skip set — the same text plans to a
// different tree under each.
func (c *Cache) GetByText(cat *catalog.Catalog, key string, q *sqlast.Query, opts Options) (*Plan, error) {
	if opts.Skip != 0 {
		key = "skip" + strconv.Itoa(int(opts.Skip)) + "|" + key
	}
	if p, ok := c.lookup(cat, key); ok {
		return p, nil
	}
	p, err := Build(cat, q, opts)
	if err != nil {
		return nil, err
	}
	if p.InlinedCalls > 0 {
		c.plansInlined.Add(int64(p.InlinedCalls))
	}
	if p.SpecializedCalls > 0 {
		c.plansSpecialized.Add(int64(p.SpecializedCalls))
	}
	if p.LoopedCTEs > 0 {
		c.plansLooped.Add(int64(p.LoopedCTEs))
	}
	c.store(key, p)
	return p, nil
}

// Len reports the number of cached plans.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
