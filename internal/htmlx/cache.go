package htmlx

import (
	"hash/maphash"
	"sync"
)

// Cache memoizes the two expensive operations of the measurement hot
// path:
//
//   - parsed DOMs, keyed by (domain, content hash) — pages fetched from
//     different vantage points frequently share the store's template
//     byte-for-byte, so one extraction parse serves every such copy of a
//     check and of the checks that follow it;
//   - Tags-Path resolution tiers, keyed by (domain, path fingerprint) —
//     once a store's template is known to resolve on the relaxed or
//     fingerprint tier, later checks skip the walks that are known to
//     fail.
//
// Cached *Node trees are shared between callers and must be treated as
// immutable, which every reader in this repository already does.
type Cache struct {
	mu   sync.Mutex
	seed maphash.Seed
	docs *lruMap[uint64, cachedDoc]
	tier *lruMap[uint64, int]

	stats CacheStats
}

// cachedDoc is a parsed page together with the bytes it was parsed from.
// The hash only finds the entry; a hit is an entry whose source equals the
// request's (a tree is a function of its source alone), so a hash
// collision is a miss and never another page's tree. The source costs
// nothing to keep: the tree's strings are views of it.
type cachedDoc struct {
	src string
	doc *Node
}

// CacheStats counts cache traffic; read a snapshot via Stats.
type CacheStats struct {
	DocHits    uint64
	DocMisses  uint64
	TierHits   uint64 // hint present and resolved on the hinted tier
	TierMisses uint64 // no hint, or the page resolved on another tier
}

// NewCache sizes the two LRUs. Non-positive capacities fall back to
// defaults good for one measurement server (256 parsed documents, 4096
// tier hints).
func NewCache(docCap, tierCap int) *Cache {
	if docCap <= 0 {
		docCap = 256
	}
	if tierCap <= 0 {
		tierCap = 4096
	}
	return &Cache{
		seed: maphash.MakeSeed(),
		docs: newLRUMap[uint64, cachedDoc](docCap),
		tier: newLRUMap[uint64, int](tierCap),
	}
}

// key hashes a domain-qualified string without allocating.
func (c *Cache) key(domain, s string) uint64 {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(domain)
	h.WriteByte(0)
	h.WriteString(s)
	return h.Sum64()
}

// pathKey fingerprints a Tags Path under a domain without rendering it
// to a string, keeping the cache-hit path allocation-free.
func (c *Cache) pathKey(domain string, p TagsPath) uint64 {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(domain)
	for _, s := range p.Steps {
		h.WriteByte(0)
		h.WriteString(s.Tag)
		h.WriteByte(0)
		h.WriteString(s.Class)
		h.WriteByte(0)
		h.WriteString(s.ID)
		h.WriteByte(byte(s.Index))
		h.WriteByte(byte(s.Index >> 8))
	}
	return h.Sum64()
}

// Parse returns the DOM for src, reusing the tree parsed for an earlier
// byte-identical page of the same domain. A nil Cache parses directly.
func (c *Cache) Parse(domain, src string) *Node {
	if c == nil {
		return Parse(src)
	}
	k := c.key(domain, src)
	c.mu.Lock()
	if e, ok := c.docs.get(k); ok && e.src == src {
		c.stats.DocHits++
		c.mu.Unlock()
		return e.doc
	}
	c.stats.DocMisses++
	c.mu.Unlock()
	// Parse outside the lock: it is the expensive part, and a duplicate
	// parse on a race is harmless (last writer wins).
	doc := Parse(src)
	c.mu.Lock()
	c.docs.put(k, cachedDoc{src: src, doc: doc})
	c.mu.Unlock()
	return doc
}

// Locate resolves the path in doc, trying the tier remembered for
// (domain, path) first and updating the memo with whichever tier won.
// A nil Cache degrades to TagsPath.Locate.
func (c *Cache) Locate(domain string, p TagsPath, doc *Node) (*Node, error) {
	if c == nil {
		return p.Locate(doc)
	}
	k := c.pathKey(domain, p)
	c.mu.Lock()
	hint, hinted := c.tier.get(k)
	c.mu.Unlock()
	if !hinted {
		hint = -1
	}
	n, tier := p.LocateTiered(doc, hint)
	if n == nil {
		return nil, ErrNotLocated
	}
	c.mu.Lock()
	if hinted && tier == hint {
		c.stats.TierHits++
	} else {
		c.stats.TierMisses++
		c.tier.put(k, tier)
	}
	c.mu.Unlock()
	return n, nil
}

// Stats returns a snapshot of the cache counters; safe on a nil Cache.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// lruMap is a minimal intrusive LRU: a map into a doubly-linked list
// ordered most- to least-recently used. It is not safe for concurrent
// use; Cache serializes access.
type lruMap[K comparable, V any] struct {
	cap   int
	items map[K]*lruEntry[K, V]
	head  *lruEntry[K, V] // most recently used
	tail  *lruEntry[K, V] // least recently used
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

func newLRUMap[K comparable, V any](capacity int) *lruMap[K, V] {
	return &lruMap[K, V]{cap: capacity, items: make(map[K]*lruEntry[K, V], capacity)}
}

func (l *lruMap[K, V]) get(k K) (V, bool) {
	e, ok := l.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	l.moveFront(e)
	return e.val, true
}

func (l *lruMap[K, V]) put(k K, v V) {
	if e, ok := l.items[k]; ok {
		e.val = v
		l.moveFront(e)
		return
	}
	e := &lruEntry[K, V]{key: k, val: v}
	l.items[k] = e
	l.pushFront(e)
	if len(l.items) > l.cap {
		evict := l.tail
		l.unlink(evict)
		delete(l.items, evict.key)
	}
}

func (l *lruMap[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *lruMap[K, V]) unlink(e *lruEntry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lruMap[K, V]) moveFront(e *lruEntry[K, V]) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}
