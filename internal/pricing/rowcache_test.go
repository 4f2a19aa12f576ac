package pricing_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/constructions"
	"repro/internal/graph"
	"repro/internal/pricing"
)

// rowCacheGraph builds a random connected graph (tree plus chords) whose
// mutations exercise every invalidation branch: tree edges whose removal
// reroutes shortest paths, chords whose removal changes nothing, and
// disconnecting cuts once the fuzzer removes enough.
func rowCacheGraph(n int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	for i := 0; i < n/2; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// driveRowCache applies `steps` random session mutations (swaps, adds,
// removes, undos) with a verify after each — through a Sync or a lazily
// filled view, alternately: every cached row —
// in particular every row the invalidation tests decided to KEEP — must
// equal a fresh BFS of the current snapshot. A keep decision that was
// wrong (a stale row surviving a mutation that changed its distances)
// fails here and nowhere else, which is the point: the O(1)-per-row
// invalidation rules are the only unverified trust in the cache.
func driveRowCache(t *testing.T, g *graph.Graph, rng *rand.Rand, steps int) {
	t.Helper()
	eng := pricing.Shared(2)
	s := eng.NewSession(g)
	n := s.N()
	cache := s.RowCache()
	fresh := make([]int32, n)
	queue := make([]int32, 0, n)

	verify := func(step int) {
		// Odd steps read through a lazy view, so rows are filled on read
		// and folded into the live index by the next mutation.
		view := cache.View()
		if step%2 == 0 {
			view = cache.Sync(2, nil)
		}
		for w := 0; w < n; w++ {
			row := view.Row(w)
			s.View().BFSInto(w, fresh, queue)
			for x := 0; x < n; x++ {
				if row[x] != fresh[x] {
					t.Fatalf("step %d: cached row %d entry %d = %d, fresh BFS = %d (gen %d)",
						step, w, x, row[x], fresh[x], s.Gen())
				}
			}
			// The tight-parent counts the exact remove test consults must
			// match fresh parent enumeration: multiplicity of x's shortest
			// paths' last hops, saturated at 255. Patched counts (gap-1
			// adds and removes that kept the row) are verified here too.
			tight := view.Tight(w)
			for x := 0; x < n; x++ {
				want := 0
				if fresh[x] > 0 {
					for _, u := range s.View().Neighbors(x) {
						if fresh[u] == fresh[x]-1 {
							want++
						}
					}
					if want > 255 {
						want = 255
					}
				}
				if int(tight[x]) != want {
					t.Fatalf("step %d: row %d tight[%d] = %d, fresh parent count = %d (gen %d)",
						step, w, x, tight[x], want, s.Gen())
				}
			}
		}
	}

	verify(-1)
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // swap: drop a random incident edge, add elsewhere
			v := rng.Intn(n)
			nbrs := s.View().Neighbors(v)
			if len(nbrs) == 0 {
				continue
			}
			drop := int(nbrs[rng.Intn(len(nbrs))])
			add := rng.Intn(n)
			if add == v {
				continue
			}
			s.ApplySwap(v, drop, add)
		case op < 6:
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			s.ApplyAdd(u, v)
		case op < 8:
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			s.ApplyRemove(u, v)
		default:
			s.Undo()
		}
		verify(step)
	}
	// Unwind the whole trajectory: undo invalidation must be as honest as
	// apply invalidation.
	for s.Undo() {
	}
	verify(steps)
}

// TestRowCacheDifferential is the cache's ground-truth differential over
// random mutation sequences on random graphs and the paper's families.
func TestRowCacheDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(413))
	for trial := 0; trial < 4; trial++ {
		driveRowCache(t, rowCacheGraph(20+trial*7, rng), rng, 30)
	}
	driveRowCache(t, constructions.Path(24), rng, 25)
	driveRowCache(t, constructions.Star(24), rng, 25)
	driveRowCache(t, constructions.NewTorus(3).Graph(), rng, 25)
}

// TestRowCacheBatchedMutations pins the compound-mutation composition:
// several mutations between two Syncs must leave exactly the union of
// their invalidations, and the next Sync must restore every row.
func TestRowCacheBatchedMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := rowCacheGraph(30, rng)
	eng := pricing.Shared(1)
	s := eng.NewSession(g)
	n := s.N()
	cache := s.RowCache()
	cache.Sync(1, nil)
	for round := 0; round < 10; round++ {
		for k := 0; k < 3; k++ {
			v := rng.Intn(n)
			nbrs := s.View().Neighbors(v)
			if len(nbrs) == 0 {
				continue
			}
			drop := int(nbrs[rng.Intn(len(nbrs))])
			add := rng.Intn(n)
			if add != v {
				s.ApplySwap(v, drop, add)
			}
		}
		view := cache.Sync(1, nil)
		fresh := make([]int32, n)
		queue := make([]int32, 0, n)
		for w := 0; w < n; w++ {
			s.View().BFSInto(w, fresh, queue)
			row := view.Row(w)
			for x := 0; x < n; x++ {
				if row[x] != fresh[x] {
					t.Fatalf("round %d: row %d entry %d = %d, want %d", round, w, x, row[x], fresh[x])
				}
			}
		}
	}
}

// TestRowCacheStaleViewPanics pins the misuse panic — a view read after a
// session mutation — and that a row outside the synced set is no misuse:
// the read fills it, and it equals a fresh BFS.
func TestRowCacheStaleViewPanics(t *testing.T) {
	g := constructions.Path(8)
	s := pricing.Shared(1).NewSession(g)
	cache := s.RowCache()

	view := cache.Sync(1, nil)
	s.ApplySwap(0, 1, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Row after mutation: no panic")
			}
		}()
		view.Row(0)
	}()

	// Sync restricted to even vertices: reading an odd row at the right
	// generation computes it on the spot.
	view = cache.Sync(1, func(w int) bool { return w%2 == 0 })
	view.Row(2)
	if cache.Valid(3) {
		t.Fatal("row 3 valid before any read")
	}
	before := cache.Recomputed()
	row := view.Row(3)
	if got := cache.Recomputed() - before; got != 1 {
		t.Fatalf("reading row 3 recomputed %d rows, want 1", got)
	}
	if !cache.Valid(3) {
		t.Fatal("row 3 not valid after its read")
	}
	n := s.N()
	fresh := make([]int32, n)
	s.View().BFSInto(3, fresh, make([]int32, 0, n))
	for x := range fresh {
		if row[x] != fresh[x] {
			t.Fatalf("filled row 3 entry %d = %d, want %d", x, row[x], fresh[x])
		}
	}
}

// TestRowCacheLazyFill drives the fill-on-read path the way the sharded
// scans do: between mutations, workers goroutines read disjoint subsets
// of the rows through one View, so the rows the last mutation invalidated
// are filled concurrently without a lock; the next mutation folds them
// into the live index and tests them like any other row. After every round, every row read
// through a fresh view must equal a fresh BFS, and the recompute ledger
// must count each fill once. Run under -race in CI.
func TestRowCacheLazyFill(t *testing.T) {
	for _, workers := range []int{2, 4} {
		rng := rand.New(rand.NewSource(int64(workers)))
		g := rowCacheGraph(40, rng)
		s := pricing.Shared(workers).NewSession(g)
		n := s.N()
		cache := s.RowCache()
		fresh := make([]int32, n)
		queue := make([]int32, 0, n)
		mutate := func() {
			u, v := rng.Intn(n), rng.Intn(n)
			switch {
			case u == v:
			case s.View().HasEdge(u, v):
				s.ApplyRemove(u, v)
			default:
				s.ApplyAdd(u, v)
			}
		}
		for round := 0; round < 30; round++ {
			mutate()
			view := cache.View()
			invalid := 0
			for w := 0; w < n; w++ {
				if !cache.Valid(w) {
					invalid++
				}
			}
			before := cache.Recomputed()
			// Each goroutine owns the rows ≡ its index (mod workers) and
			// reads a random half of them.
			keep := make([]bool, n)
			for w := range keep {
				keep[w] = rng.Intn(2) == 0
			}
			var wg sync.WaitGroup
			for k := 0; k < workers; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					for w := k; w < n; w += workers {
						if keep[w] {
							view.Row(w)
						}
					}
				}(k)
			}
			wg.Wait()
			filled := cache.Recomputed() - before
			if filled > uint64(invalid) {
				t.Fatalf("workers %d round %d: %d rows filled, only %d were invalid", workers, round, filled, invalid)
			}
			if cache.Live() > n {
				t.Fatalf("workers %d round %d: %d live rows of %d", workers, round, cache.Live(), n)
			}
			// A second mutation folds the filled rows into the live index
			// and runs its invalidation tests on them.
			mutate()
			view = cache.View()
			for w := 0; w < n; w++ {
				s.View().BFSInto(w, fresh, queue)
				row := view.Row(w)
				for x := 0; x < n; x++ {
					if row[x] != fresh[x] {
						t.Fatalf("workers %d round %d: row %d entry %d = %d, want %d",
							workers, round, w, x, row[x], fresh[x])
					}
				}
			}
			if cache.Live() != n {
				t.Fatalf("workers %d round %d: %d live rows after reading all %d", workers, round, cache.Live(), n)
			}
		}
		s.Close()
	}
}

// TestRowCacheRecomputeAccounting pins the reuse ledger: a second Sync at
// an unchanged position recomputes nothing, and a single chord far from
// most shortest paths invalidates only a fraction of the rows.
func TestRowCacheRecomputeAccounting(t *testing.T) {
	g := constructions.NewTorus(4).Graph() // n = 32
	s := pricing.Shared(1).NewSession(g)
	n := s.N()
	cache := s.RowCache()
	cache.Sync(1, nil)
	if got := cache.Recomputed(); got != uint64(n) {
		t.Fatalf("first sync recomputed %d rows, want %d", got, n)
	}
	cache.Sync(1, nil)
	if got := cache.Recomputed(); got != uint64(n) {
		t.Fatalf("idle sync recomputed %d extra rows", got-uint64(n))
	}
	// A chord between two already-adjacent-ish vertices (distance ≤ 1
	// apart for every witness) invalidates no rows at all: pick u,v with
	// d(u,v) == 2 so only rows seeing a 2-gap are touched.
	view := cache.Sync(1, nil)
	var u, v int
	found := false
	for u = 0; u < n && !found; u++ {
		row := view.Row(u)
		for v = 0; v < n; v++ {
			if row[v] == 2 {
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no distance-2 pair in torus")
	}
	s.ApplyAdd(u, v)
	cache.Sync(1, nil)
	delta := cache.Recomputed() - uint64(n)
	if delta == 0 || delta == uint64(n) {
		t.Fatalf("chord add recomputed %d of %d rows; want a proper nonzero fraction", delta, n)
	}
}

// checkExactInvalidation pins the tentpole claim that the O(1) tests are
// EXACT, not merely sound: from a fully warm cache, one mutation must
// invalidate precisely the rows whose distances genuinely changed — every
// kept row still equals a fresh BFS (soundness) and every flagged row
// genuinely differs (no spurious recomputes). It returns the number of
// rows the mutation invalidated.
func checkExactInvalidation(t *testing.T, g *graph.Graph, mutate func(*pricing.Session)) int {
	t.Helper()
	s := pricing.Shared(1).NewSession(g)
	n := s.N()
	cache := s.RowCache()
	view := cache.Sync(1, nil)
	old := make([][]int32, n)
	for w := 0; w < n; w++ {
		old[w] = append([]int32(nil), view.Row(w)...)
	}
	before := cache.Invalidated()
	mutate(s)
	fresh := make([]int32, n)
	queue := make([]int32, 0, n)
	for w := 0; w < n; w++ {
		s.View().BFSInto(w, fresh, queue)
		changed := false
		for x := 0; x < n; x++ {
			if fresh[x] != old[w][x] {
				changed = true
				break
			}
		}
		if valid := cache.Valid(w); valid == changed {
			t.Fatalf("row %d: valid=%v but distances changed=%v — invalidation test not exact", w, valid, changed)
		}
	}
	return int(cache.Invalidated() - before)
}

// twinRePointGraph is the O(1)-invalidation witness: a long chain hung off
// anchor 3, twin vertices 1 and 2 both attached to the anchor, and agent 0
// attached to twin 1. Re-pointing 0 from one twin to the other preserves
// d(w,0) for every chain witness — under ApplySwap's insert-before-remove
// ordering the add raises 0's tight-parent count to 2 and the remove
// decrements it back, so only the three local rows {0,1,2} change.
func twinRePointGraph(n int) *graph.Graph {
	g := graph.New(n)
	g.AddEdge(0, 1)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	for v := 4; v < n; v++ {
		g.AddEdge(v-1, v)
	}
	return g
}

// TestRowCacheExactInvalidation drives checkExactInvalidation over the
// paper's families and random positions: single swaps, adds, removes —
// including disconnecting tree-edge cuts, where "all n rows invalidated"
// is the exact answer, not a conservative one.
func TestRowCacheExactInvalidation(t *testing.T) {
	// A bare tree-edge removal genuinely changes every row (the far side
	// goes unreachable for every witness): exactness means all n flagged.
	if inv := checkExactInvalidation(t, constructions.Path(128), func(s *pricing.Session) {
		s.ApplyRemove(63, 64)
	}); inv != 128 {
		t.Fatalf("path cut invalidated %d rows, want all 128", inv)
	}
	// A leaf re-point on the path end: the chord 0–2 shortcuts almost
	// every witness's route to 0, so near-full invalidation is exact too.
	checkExactInvalidation(t, constructions.Path(128), func(s *pricing.Session) {
		s.ApplySwap(0, 1, 2)
	})
	// Random positions, every mutation kind.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 6; trial++ {
		g := rowCacheGraph(24+trial*5, rng)
		n := g.N()
		checkExactInvalidation(t, g, func(s *pricing.Session) {
			v := rng.Intn(n)
			nbrs := s.View().Neighbors(v)
			if len(nbrs) == 0 {
				return
			}
			s.ApplySwap(v, int(nbrs[rng.Intn(len(nbrs))]), rng.Intn(n))
		})
		checkExactInvalidation(t, g, func(s *pricing.Session) {
			s.ApplyAdd(rng.Intn(n), rng.Intn(n))
		})
		checkExactInvalidation(t, g, func(s *pricing.Session) {
			s.ApplyRemove(rng.Intn(n), rng.Intn(n))
		})
	}
}

// TestRowCacheSwapInvalidationO1 pins the tentpole win: an equidistant
// re-point on a 128-vertex position invalidates exactly the three local
// rows — not all n, which both the old conservative remove rule (every
// gap-1 removal flags the row) and a remove-first ApplySwap ordering (the
// chain is momentarily disconnected) would have forced.
func TestRowCacheSwapInvalidationO1(t *testing.T) {
	const n = 128
	if inv := checkExactInvalidation(t, twinRePointGraph(n), func(s *pricing.Session) {
		s.ApplySwap(0, 1, 2)
	}); inv != 3 {
		t.Fatalf("twin re-point invalidated %d rows, want exactly 3 (agent and both twins)", inv)
	}

	// The same bound holds across a full apply → sync → undo cycle, and
	// the ledger shows it: 3 rows per direction, n + 6 recomputes total.
	s := pricing.Shared(1).NewSession(twinRePointGraph(n))
	cache := s.RowCache()
	cache.Sync(1, nil)
	s.ApplySwap(0, 1, 2)
	if live := cache.Live(); live != n-3 {
		t.Fatalf("after swap: %d live rows, want %d", live, n-3)
	}
	for w := 3; w < n; w++ {
		if !cache.Valid(w) {
			t.Fatalf("chain row %d invalidated by an equidistant re-point", w)
		}
	}
	cache.Sync(1, nil)
	s.Undo()
	if got := cache.Invalidated(); got != 6 {
		t.Fatalf("apply+undo invalidated %d rows, want 6", got)
	}
	cache.Sync(1, nil)
	if got := cache.Recomputed(); got != n+6 {
		t.Fatalf("apply+undo recomputed %d rows, want %d", got, n+6)
	}
}

// FuzzRowCache is the fuzzing harness over driveRowCache's mutation
// space: fuzzer-chosen size, seed, and step count.
//
// Run a short bounded hunt with:
//
//	go test -run=NONE -fuzz=FuzzRowCache -fuzztime=30s ./internal/pricing
func FuzzRowCache(f *testing.F) {
	f.Add(uint8(8), int64(1), uint8(10))
	f.Add(uint8(20), int64(9), uint8(25))
	f.Add(uint8(3), int64(42), uint8(40))
	f.Fuzz(func(t *testing.T, nRaw uint8, seed int64, stepsRaw uint8) {
		n := 3 + int(nRaw)%30
		steps := 1 + int(stepsRaw)%40
		rng := rand.New(rand.NewSource(seed))
		driveRowCache(t, rowCacheGraph(n, rng), rng, steps)
	})
}
