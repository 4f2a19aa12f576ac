package game

import (
	"math/rand"
	"testing"

	"repro/internal/constructions"
	"repro/internal/graph"
)

// internalFuzzGraph mirrors scanfuzz_test.go's fuzzGraph for the
// in-package tests: a random tree plus chords, connected by construction.
func internalFuzzGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	for i := 0; i < n/3; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestBatchedSweepCacheMatchesFresh pins the RowCache's end-to-end
// contract: a full batched sweep whose shared rows come from a long-lived,
// invalidation-maintained cache is bit-identical to the same sweep on a
// fresh instance of the current position (every row computed anew) —
// across a trajectory of applied moves, so the cache's selective
// invalidation (not a full rebuild) is what keeps the rows honest.
func TestBatchedSweepCacheMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := internalFuzzGraph(24, seed)
		rng := rand.New(rand.NewSource(seed * 31))
		models := map[string]Model{
			"swap":      Swap{},
			"greedy":    Greedy{EdgeCost: 2},
			"budget":    Budget{K: 3},
			"interests": RandomInterests(g.N(), 0.5, rng),
		}
		for name, model := range models {
			for _, obj := range []Objective{Sum, Max} {
				inst := model.New(g.Clone(), 2)
				for step := 0; step < 6; step++ {
					fresh := model.New(inst.Graph().Clone(), 2)
					fm, fo, fn, fok := FindImprovementBatched(fresh, obj)
					CloseInstance(fresh)
					cm, co, cn, cok := FindImprovementBatched(inst, obj)
					if fok != cok || (fok && (fm != cm || fo != co || fn != cn)) {
						t.Fatalf("seed %d %s/%v step %d: fresh (%v,%d,%d,%v), cached (%v,%d,%d,%v)",
							seed, name, obj, step, fm, fo, fn, fok, cm, co, cn, cok)
					}
					if !fok {
						break
					}
					inst.Apply(fm)
				}
				CloseInstance(inst)
			}
		}
	}
}

// TestBatchedSweepRowReusePersists pins that the cache actually persists
// across sweeps: repeated sweeps of an unchanged position pay the n row
// BFS exactly once, and a sweep after one applied move recomputes only
// the invalidated rows, never more than n.
func TestBatchedSweepRowReusePersists(t *testing.T) {
	g := constructions.NewTorus(8).Graph() // max-stable: full sweeps
	n := g.N()
	s := Swap{}.New(g, 1).(*SwapSession)
	for i := 0; i < 3; i++ {
		if _, _, _, ok := s.FindImprovementBatched(Max); ok {
			t.Fatal("torus must be max-stable")
		}
	}
	cache := s.ps.RowCache()
	if got := cache.Recomputed(); got != uint64(n) {
		t.Fatalf("3 sweeps of an unchanged position recomputed %d rows, want exactly n=%d", got, n)
	}
	// One applied move (and its undo) invalidates a subset of rows; the
	// next sweep recomputes only those.
	v := 0
	drop := int(s.ps.View().Neighbors(v)[0])
	add := n / 2
	if s.ps.View().HasEdge(v, add) {
		t.Fatalf("bad test setup: %d-%d already an edge", v, add)
	}
	s.Apply(Move{V: v, Drop: drop, Add: add})()
	before := cache.Recomputed()
	s.FindImprovementBatched(Max)
	if delta := cache.Recomputed() - before; delta > uint64(n) {
		t.Fatalf("sweep after apply+undo recomputed %d rows, want ≤ n=%d", delta, n)
	}
}

// torusGrid is the rows×cols grid with wraparound.
func torusGrid(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(r*cols+c, ((r+1)%rows)*cols+c)
			g.AddEdge(r*cols+c, r*cols+(c+1)%cols)
		}
	}
	return g
}

// TestSharedRowsFilledOnRead pins the lazy fill's work count at one
// worker: a sweep that exits at its first violation computes only the
// rows its scans read — far fewer than n — while a sweep that certifies
// an equilibrium reads, and so computes, every row exactly once.
func TestSharedRowsFilledOnRead(t *testing.T) {
	g := torusGrid(10, 10)
	n := g.N()
	early := Budget{K: 5}.New(g.Clone(), 1)
	defer CloseInstance(early)
	if _, _, _, ok := FindImprovementBatched(early, Sum); !ok {
		t.Fatal("budget k=5 on the 10×10 torus must have an improving move under sum")
	}
	st, _ := InstanceRowCacheStats(early)
	if st.Recomputed >= uint64(n) {
		t.Fatalf("early-exit sweep computed %d shared rows, want fewer than n=%d", st.Recomputed, n)
	}
	if st.Recomputed == 0 {
		t.Fatal("early-exit sweep computed no shared rows at all")
	}

	eq := Swap{}.New(constructions.NewTorus(8).Graph(), 1) // max-stable
	defer CloseInstance(eq)
	if _, _, _, ok := FindImprovementBatched(eq, Max); ok {
		t.Fatal("torus must be max-stable")
	}
	st, _ = InstanceRowCacheStats(eq)
	if want := uint64(eq.Graph().N()); st.Recomputed != want {
		t.Fatalf("equilibrium sweep computed %d shared rows, want exactly n=%d", st.Recomputed, want)
	}
}

// benchCertifySweeps times the random-improving certification cadence:
// the trajectory is first driven to equilibrium (outside the timer), then
// every timed iteration is one full certification sweep of the converged
// position, exactly what repeated service rechecks and post-patience
// certifications pay. The shared rows persist in the RowCache, so a sweep
// of an unchanged position computes no rows at all.
func benchCertifySweeps(b *testing.B, mk func() *graph.Graph, obj Objective) {
	inst := Swap{}.New(mk(), 1).(*SwapSession)
	for moves := 0; ; moves++ {
		if moves > 10_000 {
			b.Fatal("trajectory did not converge")
		}
		m, _, _, ok := inst.FindImprovementBatched(obj)
		if !ok {
			break
		}
		inst.Apply(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := inst.FindImprovementBatched(obj); ok {
			b.Fatal("equilibrium regressed")
		}
	}
}

func BenchmarkCertifySweepsRowReusePath128(b *testing.B) {
	benchCertifySweeps(b, func() *graph.Graph { return constructions.Path(128) }, Sum)
}

func BenchmarkCertifySweepsRowReuseTorus256(b *testing.B) {
	benchCertifySweeps(b, func() *graph.Graph { return constructions.NewTorus(8).Graph() }, Max)
}
