package embed

import (
	"sync"
	"sync/atomic"
)

// ValueCache is a concurrency-safe embedding cache keyed by (model tier,
// value text), and the only embedding memo: a Model computes every vector
// it is asked for. A caller that embeds values repeatedly fronts its model
// with one through Cached. An integration session keeps one for its
// lifetime, so values re-embedded across repeated integrations of
// overlapping table sets are computed once. Distinct model tiers never
// share entries — the same value embeds differently under different tiers.
type ValueCache struct {
	mu     sync.RWMutex
	m      map[valueKey]Vector
	hits   atomic.Int64
	misses atomic.Int64
}

type valueKey struct {
	model string
	value string
}

// NewValueCache returns an empty cache.
func NewValueCache() *ValueCache {
	return &ValueCache{m: make(map[valueKey]Vector)}
}

// Lookup returns the cached vector for (model, value), counting the probe
// as a hit or miss.
func (c *ValueCache) Lookup(model, value string) (Vector, bool) {
	c.mu.RLock()
	v, ok := c.m[valueKey{model, value}]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Put stores the vector for (model, value).
func (c *ValueCache) Put(model, value string, v Vector) {
	c.mu.Lock()
	c.m[valueKey{model, value}] = v
	c.mu.Unlock()
}

// Len reports the number of cached (model, value) entries.
func (c *ValueCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Hits reports the cumulative number of Lookup hits.
func (c *ValueCache) Hits() int64 { return c.hits.Load() }

// Misses reports the cumulative number of Lookup misses.
func (c *ValueCache) Misses() int64 { return c.misses.Load() }

// cachedEmbedder fronts an Embedder with a ValueCache.
type cachedEmbedder struct {
	inner Embedder
	cache *ValueCache
}

// Cached wraps an embedder so that every Embed consults (and fills) the
// shared cache under the embedder's model name. Wrapping is idempotent in
// effect: an already-wrapped embedder is returned unchanged when it fronts
// the same cache. A nil cache returns the embedder as is.
func Cached(e Embedder, c *ValueCache) Embedder {
	if c == nil {
		return e
	}
	if ce, ok := e.(*cachedEmbedder); ok && ce.cache == c {
		return e
	}
	return &cachedEmbedder{inner: e, cache: c}
}

// Name implements Embedder with the inner model's name, so cache keys and
// diagnostics are tier-accurate.
func (ce *cachedEmbedder) Name() string { return ce.inner.Name() }

// Dim implements Embedder.
func (ce *cachedEmbedder) Dim() int { return ce.inner.Dim() }

// Embed implements Embedder: cache first, inner model on miss.
func (ce *cachedEmbedder) Embed(value string) Vector {
	if v, ok := ce.cache.Lookup(ce.inner.Name(), value); ok {
		return v
	}
	v := ce.inner.Embed(value)
	ce.cache.Put(ce.inner.Name(), value, v)
	return v
}
