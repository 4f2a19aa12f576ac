package game_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/constructions"
	"repro/internal/game"
	"repro/internal/graph"
)

// Scan-conformance suite: pins that the unified scan engine's witness —
// move, cost, and tie-break — is bit-identical to the pre-refactor
// sequential enumeration for every model, worker count, and objective.
//
// The reference below is deliberately independent of the engine: it
// re-enumerates each model's documented candidate order with a plain
// sequential loop and prices every candidate through the model's *naive*
// instance (apply-measure-revert / re-freeze pricing), so a regression in
// the engine's enumeration, admission threshold, pruning, or merge order
// cannot cancel out. The reference also enumerates the candidates the
// fast paths deliberately skip (adds onto existing neighbors — pure
// deletions — and over-nothing no-ops), proving the deletion-skip is
// outcome-preserving.
//
// Trajectory-level conformance is pinned separately by the golden traces
// in internal/dynamics (the PR 2 random-improving trace and the PR 4
// greedy/interests traces) and the Run-vs-NaiveRun differential suite;
// this file pins the per-call witnesses those trajectories are built from.

// refCand is one reference candidate: its move and exact oracle price.
type refCand struct {
	m    game.Move
	cost int64
}

// sortedNeighbors returns v's neighbors ascending — the scan engines' drop
// order.
func sortedNeighbors(g *graph.Graph, v int) []int {
	nbs := append([]int(nil), g.Neighbors(v)...)
	sort.Ints(nbs)
	return nbs
}

// refEnumerate lists agent v's candidates in the model's documented
// sequential order, pricing each through the naive oracle.
func refEnumerate(model game.Model, naive game.Instance, v int, obj game.Objective) []refCand {
	g := naive.Graph()
	n := g.N()
	nbs := sortedNeighbors(g, v)
	var out []refCand
	swapLike := func(feasible func(add int) bool, skipNoop bool) {
		for add := 0; add < n; add++ {
			if add == v || (feasible != nil && !feasible(add)) {
				continue
			}
			for _, w := range nbs {
				if skipNoop && w == add {
					continue
				}
				m := game.Move{V: v, Drop: w, Add: add}
				out = append(out, refCand{m, naive.PriceMove(m, obj)})
			}
		}
	}
	switch md := model.(type) {
	case game.Swap:
		swapLike(nil, false)
	case game.Interests:
		swapLike(nil, false)
	case game.Budget:
		swapLike(func(add int) bool {
			return g.HasEdge(v, add) || g.Degree(add) < md.K
		}, false)
	case game.TwoNeighborhood:
		swapLike(nil, true)
	case game.Greedy:
		for w := 0; w < n; w++ {
			if w == v || g.HasEdge(v, w) {
				continue
			}
			m := game.Move{Kind: game.KindAdd, V: v, Add: w}
			out = append(out, refCand{m, naive.PriceMove(m, obj)})
		}
		for _, w := range nbs {
			m := game.Move{Kind: game.KindDelete, V: v, Drop: w}
			out = append(out, refCand{m, naive.PriceMove(m, obj)})
		}
		for add := 0; add < n; add++ {
			if add == v || g.HasEdge(v, add) {
				continue
			}
			for _, w := range nbs {
				m := game.Move{Kind: game.KindSwap, V: v, Drop: w, Add: add}
				out = append(out, refCand{m, naive.PriceMove(m, obj)})
			}
		}
	default:
		panic("refEnumerate: unknown model " + model.Name())
	}
	return out
}

// refFirst is the pre-refactor first-improvement result: the first
// candidate in enumeration order pricing strictly below cur.
func refFirst(cands []refCand, cur int64) (refCand, bool) {
	for _, c := range cands {
		if c.cost < cur {
			return c, true
		}
	}
	return refCand{}, false
}

// refBest is the pre-refactor best-move result among strictly improving
// candidates: for the swap model (and only it) ties break by
// (cost, drop, add) — the historical checker order — and for every other
// model toward the enumeration-first candidate.
func refBest(model game.Model, cands []refCand, cur int64) (refCand, bool) {
	var best refCand
	found := false
	_, dropFirst := model.(game.Swap)
	better := func(a, b refCand) bool {
		if a.cost != b.cost {
			return a.cost < b.cost
		}
		if !dropFirst {
			return false // enumeration order settles ties: first seen wins
		}
		if a.m.Drop != b.m.Drop {
			return a.m.Drop < b.m.Drop
		}
		return a.m.Add < b.m.Add
	}
	for _, c := range cands {
		if c.cost >= cur {
			continue
		}
		if !found || better(c, best) {
			best, found = c, true
		}
	}
	return best, found
}

// conformanceModels mirrors the five-model roster with fixed, seeded
// configurations.
func conformanceModels(n int, rng *rand.Rand) []game.Model {
	return []game.Model{
		game.Swap{},
		game.Greedy{EdgeCost: 2},
		game.RandomInterests(n, 0.5, rng),
		game.Budget{K: 3},
		game.TwoNeighborhood{},
	}
}

// conformanceGraphs is the input table. dense16 (a tree plus 72 chords,
// about half of all pairs adjacent) puts vertices under several covering
// neighbors, triangles inside N(v), and many adds onto existing neighbors.
func conformanceGraphs(rng *rand.Rand) map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path12":  constructions.Path(12),
		"star12":  constructions.Star(12),
		"torus18": constructions.NewTorus(3).Graph(),
		"tree20":  randomConnected(rng, 20, 6),
		"dense16": randomConnected(rng, 16, 72),
	}
}

func TestScanConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	for gname, g := range conformanceGraphs(rng) {
		n := g.N()
		for _, model := range conformanceModels(n, rng) {
			naive := model.Naive(g.Clone(), 1)
			for _, workers := range []int{1, 2, 4, 8} {
				fast := model.New(g.Clone(), workers)
				for _, obj := range []game.Objective{game.Sum, game.Max} {
					for v := 0; v < n; v++ {
						cands := refEnumerate(model, naive, v, obj)
						cur := naive.Cost(v, obj)

						wm, wok := refFirst(cands, cur)
						m, old, newCost, ok := fast.FirstImproving(v, obj)
						if ok != wok || old != cur || (ok && (m != wm.m || newCost != wm.cost)) {
							t.Fatalf("%s/%s workers=%d obj=%v v=%d: FirstImproving (%v,%d,%d,%v), reference (%v,%d,%d,%v)",
								gname, model.Name(), workers, obj, v, m, old, newCost, ok, wm.m, cur, wm.cost, wok)
						}

						wm, wok = refBest(model, cands, cur)
						m, old, newCost, ok = fast.BestMove(v, obj)
						if ok != wok || old != cur || (ok && (m != wm.m || newCost != wm.cost)) {
							t.Fatalf("%s/%s workers=%d obj=%v v=%d: BestMove (%v,%d,%d,%v), reference (%v,%d,%d,%v)",
								gname, model.Name(), workers, obj, v, m, old, newCost, ok, wm.m, cur, wm.cost, wok)
						}
					}
				}
			}
		}
	}
}
