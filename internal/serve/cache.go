package serve

import (
	"container/list"
	"sync"
)

// verdictCache is the LRU of certified check verdicts. Keys combine the
// graph's internal/iso certificate with the full spec fingerprint (model
// configuration, objective, stable-only bit), so repeated
// checks of the same graph under the same spec are answered without a
// single BFS. Worker counts are deliberately excluded from the key:
// verdicts and witnesses are bit-identical for every worker count.
//
// Soundness: iso.Certificate is a complete invariant only up to n = 8, and
// witness violations name concrete vertex labels, so a certificate match
// is not enough to serve a cached verdict. Every entry therefore stores
// the exact labeled sparse6 of the graph it certified, and a lookup hits
// only on an exact match. Distinct labeled graphs that share a key
// (certificate collisions past n = 8, or isomorphic relabelings whose
// witnesses would name the wrong vertices) coexist in a small per-key
// bucket instead of overwriting each other, so two such graphs checked
// alternately both stay warm; only the bucket's least recent exact graph
// is displaced when the bucket fills. The cache can under-hit; it can
// never serve a verdict for a different labeled graph.
type verdictCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent; values are *cacheEntry
	items map[string]*list.Element
}

// bucketCap bounds how many distinct exact labeled graphs one key holds.
// Collisions need n > 8 plus a WL-1 refinement tie, so buckets almost
// always hold one item; the cap only bounds the adversarial case.
const bucketCap = 4

// cacheEntry is one key's bucket of exact-labeled-graph verdicts, ordered
// least → most recently used.
type cacheEntry struct {
	key    string
	bucket []bucketItem
}

type bucketItem struct {
	exact   string // exact labeled sparse6 of the certified graph
	verdict VerdictDTO
}

func newVerdictCache(capacity int) *verdictCache {
	return &verdictCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached verdict for (key, exact graph), if present.
func (c *verdictCache) get(key, exact string) (VerdictDTO, bool) {
	if c == nil || c.cap <= 0 {
		return VerdictDTO{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return VerdictDTO{}, false
	}
	ent := el.Value.(*cacheEntry)
	for i := range ent.bucket {
		if ent.bucket[i].exact != exact {
			continue
		}
		item := ent.bucket[i]
		ent.bucket = append(append(ent.bucket[:i:i], ent.bucket[i+1:]...), item)
		c.ll.MoveToFront(el)
		return item.verdict, true
	}
	return VerdictDTO{}, false
}

// put records a freshly certified verdict, evicting the least recently
// used key when full. A key collision (same certificate and spec,
// different labeled graph) joins the key's bucket rather than evicting
// the resident entry; past bucketCap distinct graphs, the bucket's least
// recently used graph is displaced.
func (c *verdictCache) put(key, exact string, v VerdictDTO) {
	if c == nil || c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		ent := el.Value.(*cacheEntry)
		for i := range ent.bucket {
			if ent.bucket[i].exact == exact {
				ent.bucket = append(append(ent.bucket[:i:i], ent.bucket[i+1:]...), bucketItem{exact: exact, verdict: v})
				c.ll.MoveToFront(el)
				return
			}
		}
		ent.bucket = append(ent.bucket, bucketItem{exact: exact, verdict: v})
		if len(ent.bucket) > bucketCap {
			ent.bucket = append(ent.bucket[:0], ent.bucket[1:]...)
		}
		c.ll.MoveToFront(el)
		return
	}
	for c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, bucket: []bucketItem{{exact: exact, verdict: v}}})
}

// len returns the number of live keys.
func (c *verdictCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
