package pricing

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// RowCache is a session-attached cache of full-graph BFS rows d_G(w,·)
// over the session's live snapshot — the shared-row matrix of the batched
// cross-agent sweep and the row-cached per-agent scans, kept alive across
// sweeps instead of rebuilt per sweep. It is maintained under the
// session's mutations exactly as graph.Dyn patch-maintains adjacency:
// every ApplySwap/ApplyAdd/ApplyRemove/Undo invalidates only the rows
// whose distances the edge change actually affects, and an invalid row is
// recomputed on its first read through a RowView (or eagerly, for every
// row at once, by Sync). A check that exits early therefore pays only for
// the rows its scans actually read. In and near equilibrium — the
// regime certification sweeps and dynamics hot loops live in — a single
// applied move invalidates a handful of rows, so a trajectory pays
// #invalidated BFS per applied move instead of n.
//
// The invalidation tests are O(1) per cached row, reading only the row's
// own entries at the mutated edge's endpoints (distances in the graph the
// row was computed for) plus the row's tight-parent counts:
//
//   - adding edge ab changes row w iff |d(w,a) − d(w,b)| ≥ 2 (the new
//     edge shortcuts some w-shortest path iff the endpoints' distances
//     differ by more than the edge's length), or exactly one endpoint is
//     unreachable from w (the edge joins w's component to another). A
//     surviving gap-1 add leaves every distance intact and gives the
//     deeper endpoint one more tight parent — an O(1) count patch;
//   - removing edge ab with |d(w,a) − d(w,b)| = 1 changes row w iff the
//     deeper endpoint x has no alternative tight parent: if d(w,x)
//     survives, every deeper distance survives too, so the row is kept
//     and x's count decremented. A gap-0 edge lies on no w-shortest path
//     and is tight for neither endpoint — nothing changes.
//
// Both tests are exact up to count saturation: alongside each row the
// cache keeps a per-vertex saturating (≤ 255) tight-parent count — how
// many neighbors of x sit at distance d(w,x)−1 — filled during the same
// BFS pass (graph.Dyn.BFSIntoCounts). Saturation keeps the stored count
// ≤ the true count, so a keep decision (stored ≥ 2 ⟹ true ≥ 2) is always
// sound; understating can only cost a spurious recompute, never a stale
// row.
//
// The memory trade is one n² int32 arena plus one n² uint8 arena per
// session (5n² bytes, bounded by RowCacheMaxBytes), drawn from a
// size-keyed pool at first use and returned by Session.Close. A RowCache
// is not safe for concurrent mutation with its session. Concurrent reads
// between mutations are safe as long as no two goroutines read the same
// invalid row at once — the scan engine's ownership rule (within one
// scan each candidate endpoint is priced by exactly one worker, and scans
// are separated by the par join), which lets a first read fill its row
// without a lock.
type RowCache struct {
	s      *Session
	arena  []int32   // n² distance backing store, rows sliced out of it
	tArena []uint8   // n² tight-parent counts, same layout
	idx    []int32   // 3n pooled backing of liveList/livePos/todo
	rows   [][]int32 // rows[w] = d_G(w,·) when livePos[w] >= 0
	tight  [][]uint8 // tight[w][x] = saturating #tight parents of x from w
	// liveList/livePos index the valid rows densely (swap-remove on
	// invalidation), so the per-mutation note loops cost O(valid), not
	// O(n) — a cold cache pays nothing per move. livePos doubles as the
	// validity bit: row w is up to date iff livePos[w] >= 0.
	liveList []int32
	livePos  []int32 // livePos[w] = index into liveList, -1 when invalid
	todo     []int32 // scratch: rows to recompute this Sync
	// filled lists the rows RowView reads computed since the last fold
	// (livePos filledRow), nFilled their count. Readers claim slots with
	// one atomic add; fold moves them into liveList before the next
	// mutation or Sync, single-threaded. filled shares todo's backing,
	// which Sync only reuses after folding.
	filled  []int32
	nFilled atomic.Int32
	// recomputed counts BFS row rebuilds and invalidated counts rows
	// flagged by mutations, over the cache's lifetime; the reuse tests,
	// benchmarks, and the dynamics/serve observability surface read them.
	recomputed  uint64
	invalidated uint64
}

// RowCacheMaxBytes bounds the arenas of one RowCache (5n² bytes: the n²
// int32 distances plus the n² uint8 tight-parent counts), which allows
// n ≤ 3663. Checks and trajectories take the shared-row path only when
// their graph fits (RowCacheFits); larger graphs run the per-agent scans,
// which need O(n) memory per worker.
const RowCacheMaxBytes = 64 << 20

// RowCacheFits reports whether an n-vertex session's RowCache arenas fit
// in RowCacheMaxBytes.
func RowCacheFits(n int) bool { return 5*int64(n)*int64(n) <= RowCacheMaxBytes }

// filledRow marks a livePos entry whose row a RowView read computed but
// fold has not yet moved into liveList: valid, not yet indexed.
const filledRow = -2

// rowArenas is the poolable backing store of one RowCache: the n²
// distance matrix, the n² tight-parent counts, and the 3n live/todo index.
type rowArenas struct {
	dist  []int32
	tight []uint8
	idx   []int32
}

// rowArenaPools pools released RowCache arenas by vertex count, so a
// service recycling its session slots across same-sized requests reuses
// the 5n² bytes instead of growing a fresh set per session, while a slot
// recycled for a different n misses that size's pool and lets the GC
// reclaim the old arenas instead of pinning them for the pool's lifetime.
var rowArenaPools sync.Map // n (int) -> *sync.Pool of *rowArenas

func arenaPool(n int) *sync.Pool {
	if p, ok := rowArenaPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := rowArenaPools.LoadOrStore(n, &sync.Pool{})
	return p.(*sync.Pool)
}

func getRowArenas(n int) *rowArenas {
	if a, ok := arenaPool(n).Get().(*rowArenas); ok {
		return a
	}
	return &rowArenas{
		dist:  make([]int32, n*n),
		tight: make([]uint8, n*n),
		idx:   make([]int32, 3*n),
	}
}

func putRowArenas(n int, a *rowArenas) {
	arenaPool(n).Put(a)
}

// RowCache returns the session's shared-row cache, creating it (arenas
// from the size-keyed pool) on first use. The cache is invalidation-
// maintained by every subsequent session mutation; rows are computed on
// first read (View) or in bulk by Sync.
func (s *Session) RowCache() *RowCache {
	if s.rows == nil {
		n := s.d.N()
		a := getRowArenas(n)
		c := &RowCache{
			s:      s,
			arena:  a.dist,
			tArena: a.tight,
			idx:    a.idx,
			rows:   make([][]int32, n),
			tight:  make([][]uint8, n),
			// liveList and todo both top out at n, so the pooled 3n index
			// arena covers them and the warm-up Sync never append-doubles.
			liveList: a.idx[0:0:n],
			livePos:  a.idx[n : 2*n : 2*n],
			todo:     a.idx[2*n : 2*n : 3*n],
			filled:   a.idx[2*n : 3*n : 3*n],
		}
		for w := 0; w < n; w++ {
			c.rows[w] = c.arena[w*n : (w+1)*n : (w+1)*n]
			c.tight[w] = c.tArena[w*n : (w+1)*n : (w+1)*n]
			c.livePos[w] = -1
		}
		s.rows = c
	}
	return s.rows
}

// Recomputed returns the number of BFS row rebuilds the cache has paid
// since creation — the denominator of the reuse win.
func (c *RowCache) Recomputed() uint64 { return c.recomputed + uint64(c.nFilled.Load()) }

// Invalidated returns the number of row invalidations mutations have
// forced since creation. Together with Recomputed it makes the cache's
// effectiveness observable: near equilibrium on tree-like positions the
// exact remove test keeps both O(1) per applied move.
func (c *RowCache) Invalidated() uint64 { return c.invalidated }

// Live returns the number of currently valid rows.
func (c *RowCache) Live() int { return len(c.liveList) + int(c.nFilled.Load()) }

// Valid reports whether row w is currently up to date — kept through every
// mutation since it was last computed. The invalidation-accounting tests
// read it to pin the exact test's keep/flag decisions row by row.
func (c *RowCache) Valid(w int) bool { return c.livePos[w] != -1 }

// release returns the arenas to the size-keyed pool and drops every
// reference, so a stale read through a leaked view fails fast on the nil
// slices instead of observing recycled memory.
func (c *RowCache) release() {
	putRowArenas(c.s.d.N(), &rowArenas{dist: c.arena, tight: c.tArena, idx: c.idx})
	c.arena, c.tArena, c.idx = nil, nil, nil
	c.rows, c.tight = nil, nil
	c.liveList, c.livePos, c.todo, c.filled = nil, nil, nil, nil
	c.nFilled.Store(0)
}

// fill computes row w (currently invalid) on its first read. It writes
// only row w's own state plus one filled slot claimed by an atomic add,
// so reads of distinct rows may fill concurrently without a lock.
func (c *RowCache) fill(w int) {
	s := c.s.e.getScratch(c.s.d.N())
	c.s.d.BFSIntoCounts(w, c.rows[w], c.tight[w], s.queue)
	c.s.e.putScratch(s)
	c.livePos[w] = filledRow
	c.filled[c.nFilled.Add(1)-1] = int32(w)
}

// fold moves the rows filled on read into the live index. Mutations and
// Syncs call it first, single-threaded, so the invalidation tests see
// every valid row.
func (c *RowCache) fold() {
	k := c.nFilled.Load()
	if k == 0 {
		return
	}
	for _, w := range c.filled[:k] {
		c.validate(w)
	}
	c.recomputed += uint64(k)
	c.nFilled.Store(0)
}

// invalidate flags row w (caller guarantees it is currently valid).
func (c *RowCache) invalidate(w int32) {
	p := c.livePos[w]
	last := int32(len(c.liveList) - 1)
	moved := c.liveList[last]
	c.liveList[p] = moved
	c.livePos[moved] = p
	c.liveList = c.liveList[:last]
	c.livePos[w] = -1
	c.invalidated++
}

// validate marks row w up to date (caller guarantees it is invalid).
func (c *RowCache) validate(w int32) {
	c.livePos[w] = int32(len(c.liveList))
	c.liveList = append(c.liveList, w)
}

// noteAdd records the insertion of edge ab: a valid row w survives iff
// the new edge cannot shortcut any shortest path from w, and a surviving
// gap-1 row's deeper endpoint gains a tight parent. The loop walks the
// live-row index backwards so the swap-remove in invalidate never skips
// an unvisited entry.
func (c *RowCache) noteAdd(a, b int) {
	c.fold()
	for i := len(c.liveList) - 1; i >= 0; i-- {
		w := c.liveList[i]
		row := c.rows[w]
		da, db := row[a], row[b]
		if da == graph.Unreachable || db == graph.Unreachable {
			// Both endpoints unreachable: the edge lives entirely outside
			// w's component and changes nothing for w. Exactly one
			// unreachable: the edge joins new vertices to w's component.
			if da != db {
				c.invalidate(w)
			}
			continue
		}
		switch d := da - db; {
		case d >= 2 || d <= -2:
			c.invalidate(w)
		case d == 1:
			// b becomes a new tight parent of a; distances are unchanged.
			if t := c.tight[w]; t[a] < 255 {
				t[a]++
			}
		case d == -1:
			if t := c.tight[w]; t[b] < 255 {
				t[b]++
			}
		}
	}
}

// noteRemove records the deletion of edge ab: a valid row w survives iff
// the edge was on no shortest path from w (gap 0, or either endpoint
// outside w's component — endpoints of an existing edge are reachable
// from w together or not at all) or the deeper endpoint keeps an
// alternative tight parent, in which case only its count changes.
func (c *RowCache) noteRemove(a, b int) {
	c.fold()
	for i := len(c.liveList) - 1; i >= 0; i-- {
		w := c.liveList[i]
		row := c.rows[w]
		da, db := row[a], row[b]
		if da == graph.Unreachable || db == graph.Unreachable {
			continue
		}
		var deeper int
		switch da - db {
		case 1:
			deeper = a
		case -1:
			deeper = b
		default:
			// A gap-0 edge lies on no shortest path from w and is tight
			// for neither endpoint: distances and counts both survive.
			continue
		}
		if t := c.tight[w]; t[deeper] > 1 {
			// An alternative tight parent keeps d(w,deeper) — and with it
			// every deeper distance — intact; only the count shrinks.
			t[deeper]--
		} else {
			c.invalidate(w)
		}
	}
}

// RowView is the read handle View and Sync return: rows at one session
// generation, each computed on its first read if it is not already valid.
// Like a Scan, a view outlived by a session mutation panics on its next
// read instead of serving stale rows. It is a value (two words), so
// handing one out costs no allocation in the dynamics hot loop.
type RowView struct {
	c   *RowCache
	gen uint64
}

// View returns a read view pinned to the session's current generation
// without computing anything: each row is brought up to date on its first
// read. This is how the certification sweeps and scans read the cache.
func (c *RowCache) View() RowView { return RowView{c: c, gen: c.s.gen} }

// Sync brings every row selected by need (nil selects all) up to date —
// recomputing only the invalidated ones, sharded across workers — and
// returns a read view pinned to the session's current generation. Rows not
// selected are left as they are, for a later read or Sync to compute.
func (c *RowCache) Sync(workers int, need func(w int) bool) RowView {
	n := c.s.d.N()
	c.fold()
	c.todo = c.todo[:0]
	for w := 0; w < n; w++ {
		if need != nil && !need(w) {
			continue
		}
		if c.livePos[w] < 0 {
			c.todo = append(c.todo, int32(w))
		}
	}
	if len(c.todo) > 0 {
		eng, view := c.s.e, c.s.d
		par.ForChunked(workers, len(c.todo), func(lo, hi int) {
			s := eng.getScratch(n)
			defer eng.putScratch(s)
			for i := lo; i < hi; i++ {
				w := int(c.todo[i])
				view.BFSIntoCounts(w, c.rows[w], c.tight[w], s.queue)
			}
		})
		for _, w := range c.todo {
			c.validate(w)
		}
		c.recomputed += uint64(len(c.todo))
	}
	return RowView{c: c, gen: c.s.gen}
}

// SyncRow brings the single row w up to date and returns it — the probe
// path's allocation-free equivalent of Sync(1, w-only).Row(w). The row is
// owned by the cache and valid only until the session's next mutation;
// callers must consume it immediately (the thresholded probe reductions
// do), since unlike a RowView there is no generation stamp to panic on a
// stale read.
func (c *RowCache) SyncRow(w int) []int32 {
	if c.livePos[w] == -1 {
		s := c.s.e.getScratch(c.s.d.N())
		c.s.d.BFSIntoCounts(w, c.rows[w], c.tight[w], s.queue)
		c.s.e.putScratch(s)
		c.validate(int32(w))
		c.recomputed++
	}
	return c.rows[w]
}

// Row returns d_G(w,·) at the view's generation, computing it first if it
// is invalid. The row is owned by the cache; do not modify. It panics when
// the session has mutated since the view was taken (stale rows no longer
// describe the graph). Concurrent readers must read distinct rows while
// any of them may still be invalid (see RowCache).
func (v RowView) Row(w int) []int32 {
	c := v.c
	if v.gen != c.s.gen {
		panic("pricing: RowCache view used after Session mutation; re-Sync")
	}
	if c.livePos[w] == -1 {
		c.fill(w)
	}
	return c.rows[w]
}

// Tight returns row w's saturating tight-parent counts — Tight(w)[x] is
// min(255, #neighbors of x at distance d(w,x)−1), the multiplicity the
// remove test consults — under the same staleness contract as Row. The
// differential suites cross-check it against fresh parent enumeration;
// pricing reductions never need it.
func (v RowView) Tight(w int) []uint8 {
	v.Row(w)
	return v.c.tight[w]
}
