package multinpu

import (
	"sync"

	"tnpu/internal/compiler"
	"tnpu/internal/memprot"
	"tnpu/internal/npu"
)

// maxCachedNPUs bounds the fixed-width program array in the cache key;
// wider tenancies (none exist — the serving layer caps at 4) simply skip
// the cache.
const maxCachedNPUs = 8

// runKey identifies one multi-NPU simulation exactly: the scheme, the
// full NPU hardware config (comparable struct), and the per-NPU program
// identities. Bus and engine are constructed fresh inside every run, and
// compiled programs are immutable and interned by the callers' program
// caches, so pointer identity is a sound stand-in for program content.
type runKey struct {
	scheme memprot.Scheme
	cfg    npu.Config
	count  int
	progs  [maxCachedNPUs]*compiler.Program
}

// RunCache memoizes whole multi-NPU Results. Repeated cells — figure
// sweeps re-running the same (scheme, config, programs) tuple, the serving
// layer's scalability curves — pay the full arbitrated simulation every
// time without it. Results are deep-copied on both store
// and hit, so callers may mutate what they receive. Safe for concurrent
// use; the expected caller (exp.Runner) additionally singleflights per
// cell, so no duplicate-suppression is attempted here.
type RunCache struct {
	mu     sync.Mutex
	m      map[runKey]*Result
	hits   uint64
	misses uint64
}

// NewRunCache returns an empty joint-run cache.
func NewRunCache() *RunCache {
	return &RunCache{m: make(map[runKey]*Result)}
}

// Stats returns cumulative hit/miss counts.
func (c *RunCache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func key(progs []*compiler.Program, scheme memprot.Scheme, cfg npu.Config) (runKey, bool) {
	if len(progs) == 0 || len(progs) > maxCachedNPUs {
		return runKey{}, false
	}
	k := runKey{scheme: scheme, cfg: cfg, count: len(progs)}
	copy(k.progs[:], progs)
	return k, true
}

// lookup returns a deep copy of a cached result. A nil cache never hits.
func (c *RunCache) lookup(progs []*compiler.Program, scheme memprot.Scheme, cfg npu.Config) (Result, bool) {
	if c == nil {
		return Result{}, false
	}
	k, ok := key(progs, scheme, cfg)
	if !ok {
		return Result{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.m[k]; ok {
		c.hits++
		return cloneResult(r), true
	}
	c.misses++
	return Result{}, false
}

// store deep-copies res into the cache. A nil cache drops it.
func (c *RunCache) store(progs []*compiler.Program, scheme memprot.Scheme, cfg npu.Config, res *Result) {
	if c == nil {
		return
	}
	k, ok := key(progs, scheme, cfg)
	if !ok {
		return
	}
	cl := cloneResult(res)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = &cl
}

func cloneResult(r *Result) Result {
	out := *r
	out.PerNPU = append([]uint64(nil), r.PerNPU...)
	out.NPUs = append([]NPUStats(nil), r.NPUs...)
	return out
}
