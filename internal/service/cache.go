package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"time"
)

// cached is one immutable analysis result as stored in the cache: the
// rendered bodies, ready to replay byte-for-byte. Entries are never
// mutated after insertion, so concurrent readers share them without
// copying.
type cached struct {
	json []byte    // the JSON body
	text []byte    // the trustseq-identical text body
	at   time.Time // render time, feeding the cache-age stats
}

// front is one front-memo entry: everything the analyze path needs of
// a problem before an engine runs. A request folds its own options into
// h with optionsKey, so one entry serves every option set.
type front struct {
	h      fp128     // the problem-prefixed fingerprint state
	digest [2]uint64 // h.sum(): the problem digest
	hex    string    // FormatDigest(digest), the X-Trustd-Digest value
}

// frontKey is the front memo's key for a DSL source: the first 128
// bits of its SHA-256. Byte-identical sources share an entry; any other
// difference, whitespace included, gets its own.
func frontKey(src []byte) [2]uint64 {
	sum := sha256.Sum256(src)
	return [2]uint64{binary.BigEndian.Uint64(sum[:8]), binary.BigEndian.Uint64(sum[8:16])}
}

// lru is a bounded LRU keyed by a [2]uint64 digest. The Service keeps
// three: the result cache (request key → rendered bodies), the base
// cache (problem digest → plan, the incremental path's diff targets)
// and the front memo (source key → front).
// It is not safe for concurrent use on its own; the Service serializes
// access under its own mutex (every operation is O(1) map+list work, so
// a single lock is never the bottleneck next to an engine run).
type lru[V any] struct {
	max     int
	order   *list.List // front = most recently used; values are *lruEntry[V]
	entries map[[2]uint64]*list.Element
}

type lruEntry[V any] struct {
	key [2]uint64
	val V
}

func newLRU[V any](max int) *lru[V] {
	if max < 1 {
		max = 1
	}
	return &lru[V]{
		max:     max,
		order:   list.New(),
		entries: make(map[[2]uint64]*list.Element, max),
	}
}

// get returns the cached value and bumps its recency.
func (c *lru[V]) get(key [2]uint64) (V, bool) {
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put inserts or refreshes a value, evicting the least recently used
// entry when full. It reports the evicted key, when any — the cluster
// layer announces evictions so peers drop their stale fill hints.
func (c *lru[V]) put(key [2]uint64, val V) (evictedKey [2]uint64, evicted bool) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.order.MoveToFront(el)
		return [2]uint64{}, false
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	if c.order.Len() <= c.max {
		return [2]uint64{}, false
	}
	oldest := c.order.Back()
	c.order.Remove(oldest)
	old := oldest.Value.(*lruEntry[V]).key
	delete(c.entries, old)
	return old, true
}

// len reports the number of cached values.
func (c *lru[V]) len() int { return c.order.Len() }

// each visits every cached value in recency order (most recent first).
func (c *lru[V]) each(f func(V)) {
	for el := c.order.Front(); el != nil; el = el.Next() {
		f(el.Value.(*lruEntry[V]).val)
	}
}
