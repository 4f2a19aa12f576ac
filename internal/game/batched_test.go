package game_test

import (
	"math/rand"
	"testing"

	"repro/internal/constructions"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/treegen"
)

// batchedModels are the models with a batched cross-agent sweep (the
// BFS-priced models, greedy included since its add stage prices exactly
// from the shared rows); only 2nb falls back to the per-agent sweep
// through game.FindImprovementBatched.
func batchedModels(n int, rng *rand.Rand) []game.Model {
	return []game.Model{
		game.Swap{},
		game.RandomInterests(n, 0.6, rng),
		game.Budget{K: 3},
		game.Greedy{EdgeCost: 2},
	}
}

// requireSameSweep drives both instances through up to four improvement
// steps, comparing the batched sweep against the per-agent sweep — same
// verdict, same (lowest-agent, enumeration-first) witness, same costs —
// after every applied move.
func requireSameSweep(t *testing.T, label string, model game.Model, base *graph.Graph, obj game.Objective, workers int) {
	t.Helper()
	gB := base.Clone()
	gS := base.Clone()
	batched := model.New(gB, workers)
	seq := model.New(gS, workers)
	if _, ok := batched.(game.BatchedSweeper); !ok {
		t.Fatalf("%s: instance does not implement BatchedSweeper", label)
	}
	for step := 0; step < 4; step++ {
		bm, bo, bn, bok := game.FindImprovementBatched(batched, obj)
		sm, so, sn, sok := seq.FindImprovement(obj)
		if bok != sok || (bok && (bm != sm || bo != so || bn != sn)) {
			t.Fatalf("%s step %d: batched (%v,%d,%d,%v), per-agent (%v,%d,%d,%v)",
				label, step, bm, bo, bn, bok, sm, so, sn, sok)
		}
		if !bok {
			return
		}
		batched.Apply(bm)
		seq.Apply(sm)
	}
}

// TestBatchedSweepMatchesPerAgent is the batched-certification
// differential: same verdict and same violation witness as the per-agent
// FindImprovement on the paper's named families and random trees, n ≤ 96.
func TestBatchedSweepMatchesPerAgent(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	graphs := map[string]*graph.Graph{
		"path17":  constructions.Path(17),
		"star33":  constructions.Star(33),
		"torus32": constructions.NewTorus(4).Graph(),
		"tree96":  treegen.RandomTree(96, rng),
		"tree48c": randomConnected(rng, 48, 10),
	}
	for gname, g := range graphs {
		for _, model := range batchedModels(g.N(), rng) {
			for _, obj := range []game.Objective{game.Sum, game.Max} {
				for _, workers := range []int{1, 3} {
					requireSameSweep(t, gname+"/"+model.Name(), model, g, obj, workers)
				}
			}
		}
	}
}

// TestCheckSwapBatchedMatchesCheckSwap pins the one-shot batched checker —
// including the deletion-criticality half of the max condition — against
// the per-agent checker, verdict and witness.
func TestCheckSwapBatchedMatchesCheckSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	graphs := []*graph.Graph{
		constructions.Path(24),
		constructions.Star(40),
		constructions.NewTorus(4).Graph(),
		treegen.RandomTree(64, rng),
		randomConnected(rng, 40, 12),
	}
	for i, g := range graphs {
		for _, obj := range []game.Objective{game.Sum, game.Max} {
			for _, critical := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					sok, sviol, serr := game.CheckSwap(g, obj, workers, critical)
					bok, bviol, berr := game.CheckSwapBatched(g, obj, workers, critical)
					if sok != bok || (serr == nil) != (berr == nil) {
						t.Fatalf("graph %d obj=%v critical=%v workers=%d: verdict per-agent (%v,%v), batched (%v,%v)",
							i, obj, critical, workers, sok, serr, bok, berr)
					}
					if (sviol == nil) != (bviol == nil) {
						t.Fatalf("graph %d obj=%v critical=%v: witness presence differs", i, obj, critical)
					}
					if sviol != nil && *sviol != *bviol {
						t.Fatalf("graph %d obj=%v critical=%v: witness per-agent %+v, batched %+v",
							i, obj, critical, sviol, bviol)
					}
				}
			}
		}
	}
}

// TestBatchedSweepDisconnectedTolerant pins that the interests batched
// sweep matches the per-agent sweep on a disconnected position (the
// interests game legally cuts off uninterested parts; the shared
// full-graph rows then carry Unreachable entries, which the lower-bound
// filter must treat as infinite exactly like the exact rows do).
func TestBatchedSweepDisconnectedTolerant(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// Two components: a path 0..8 and a triangle 9-10-11.
	g := graph.New(12)
	for v := 1; v < 9; v++ {
		g.AddEdge(v-1, v)
	}
	g.AddEdge(9, 10)
	g.AddEdge(10, 11)
	g.AddEdge(9, 11)
	model := game.RandomInterests(12, 0.4, rng)
	for _, obj := range []game.Objective{game.Sum, game.Max} {
		for _, workers := range []int{1, 3} {
			requireSameSweep(t, "disconnected/interests", model, g, obj, workers)
		}
	}
}

// TestBatchedSweepAllocDelta pins the memory-for-time trade: at one worker
// the batched sweep may allocate O(n) extra — a constant number of
// closures per deviator — on top of the per-agent sweep. The shared rows
// themselves no longer count per sweep: they live in the session's
// RowCache, one n² arena amortized across every sweep of the session's
// lifetime, so a repeated sweep of an unchanged position recomputes and
// allocates no rows at all. The bound is 2n+32: a regression back to n
// per-sweep per-row allocations (64 here) or to per-deviator row
// derivation (Θ(n²)) trips it with a clear margin while the constant
// per-agent closure overhead (~2n) does not.
func TestBatchedSweepAllocDelta(t *testing.T) {
	n := 64
	g := constructions.Star(n)
	inst := game.Swap{}.New(g, 1).(*game.SwapSession)
	seq := testing.AllocsPerRun(10, func() {
		if _, _, _, ok := inst.FindImprovement(game.Sum); ok {
			t.Fatal("star must be sum-stable")
		}
	})
	batched := testing.AllocsPerRun(10, func() {
		if _, _, _, ok := inst.FindImprovementBatched(game.Sum); ok {
			t.Fatal("star must be sum-stable")
		}
	})
	if delta := batched - seq; delta > float64(2*n+32) {
		t.Fatalf("batched sweep allocates %.0f more than per-agent (seq %.0f, batched %.0f); want ≤ 2n+32 = %d",
			delta, seq, batched, 2*n+32)
	}
}

// TestSharedRowsConcurrentFill drives the row cache's fill-on-first-read
// from sharded scans: at workers {2, 4} each scan's chunks fill the rows
// of their own endpoints concurrently and without a lock, and every
// applied move folds them into the live index before invalidating. Along
// a trajectory mixing row-cached best-move and first-improving scans with
// whole shared-row sweeps, every result must equal the per-agent twin's.
// Run under -race in CI.
func TestSharedRowsConcurrentFill(t *testing.T) {
	for _, workers := range []int{2, 4} {
		rng := rand.New(rand.NewSource(int64(17 * workers)))
		base := randomConnected(rng, 40, 12)
		for _, model := range batchedModels(base.N(), rng) {
			for _, obj := range []game.Objective{game.Sum, game.Max} {
				shared := model.New(base.Clone(), workers)
				ref := model.New(base.Clone(), workers)
				rc := shared.(game.RowCachedScanner)
				label := model.Name() + "/" + obj.String()
				for step := 0; step < 12; step++ {
					v := rng.Intn(base.N())
					var sm, rm game.Move
					var sok, rok bool
					var so, sn, ro, rn int64
					switch step % 3 {
					case 0:
						sm, so, sn, sok = rc.BestMoveRowCached(v, obj)
						rm, ro, rn, rok = ref.BestMove(v, obj)
					case 1:
						sm, so, sn, sok = rc.FirstImprovingRowCached(v, obj)
						rm, ro, rn, rok = ref.FirstImproving(v, obj)
					default:
						sm, so, sn, sok = game.FindImprovementBatched(shared, obj)
						rm, ro, rn, rok = ref.FindImprovement(obj)
					}
					if sok != rok || (sok && (sm != rm || so != ro || sn != rn)) {
						t.Fatalf("workers %d %s step %d: shared (%v,%d,%d,%v), per-agent (%v,%d,%d,%v)",
							workers, label, step, sm, so, sn, sok, rm, ro, rn, rok)
					}
					if sok {
						shared.Apply(sm)
						ref.Apply(rm)
					}
				}
				game.CloseInstance(shared)
				game.CloseInstance(ref)
			}
		}
	}
}
