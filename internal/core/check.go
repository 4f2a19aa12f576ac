package core

import (
	"repro/internal/game"
	"repro/internal/graph"
)

// PriceSwaps invokes fn once for every candidate swap of agent v — every
// pair (w, w') with w a current neighbor and w' any other vertex — passing
// the agent's usage cost after performing Move{v, w, w'}. Candidates are
// enumerated add-major: w' ascending, and for each w', dropped edges w in
// ascending order. Candidates where w' == w (no-ops) are included and price
// to the current cost, which callers may use as a consistency check. fn
// returning false stops the scan early. The graph is not mutated: pricing
// runs over a frozen snapshot through the swap-pricing engine
// (internal/pricing), costing one BFS per candidate endpoint shared across
// all dropped edges instead of an all-pairs sweep per dropped edge.
func PriceSwaps(g *graph.Graph, v int, obj Objective, fn func(m Move, newCost int64) bool) {
	game.PriceSwaps(g, v, obj, fn)
}

// NaivePriceSwaps is the pre-engine pricing path, kept as the differential-
// test oracle: for every dropped edge it recomputes all-pairs shortest
// paths on G−vw and prices each candidate from the patched rows. Candidates
// are enumerated drop-major (w ascending, then w'), the historical order.
// g is mutated during the scan and restored before return; it must not be
// shared concurrently.
func NaivePriceSwaps(g *graph.Graph, v int, obj Objective, fn func(m Move, newCost int64) bool) {
	n := g.N()
	for _, w := range g.Neighbors(v) {
		g.RemoveEdge(v, w)
		ap := g.AllPairs()
		dv := ap.Row(v)
		stop := false
		for wp := 0; wp < n && !stop; wp++ {
			if wp == v {
				continue
			}
			var cost int64
			if obj == Sum {
				cost = patchedSum(dv, ap.Row(wp))
			} else {
				cost = patchedEcc(dv, ap.Row(wp))
			}
			if !fn(Move{V: v, Drop: w, Add: wp}, cost) {
				stop = true
			}
		}
		g.AddEdge(v, w)
		if stop {
			return
		}
	}
}

// BestSwap returns the cost-minimizing swap for agent v under obj, its new
// cost, and whether it strictly improves on v's current cost. Ties are
// broken toward the lexicographically smallest (Drop, Add), making the
// result deterministic. The graph is not mutated.
func BestSwap(g *graph.Graph, v int, obj Objective) (best Move, newCost int64, improves bool) {
	return game.BestSwap(g, v, obj, 1)
}

// BestSwapParallel is BestSwap with the candidate-endpoint scan sharded
// across the given number of workers (<= 0 means par.DefaultWorkers). The
// result is identical for every worker count.
func BestSwapParallel(g *graph.Graph, v int, obj Objective, workers int) (best Move, newCost int64, improves bool) {
	return game.BestSwap(g, v, obj, workers)
}

// NaiveBestSwap is BestSwap over the NaivePriceSwaps oracle.
func NaiveBestSwap(g *graph.Graph, v int, obj Objective) (best Move, newCost int64, improves bool) {
	cur := Cost(g, v, obj)
	newCost = cur
	NaivePriceSwaps(g, v, obj, func(m Move, c int64) bool {
		if c < newCost {
			newCost = c
			best = m
		}
		return true
	})
	return best, newCost, newCost < cur
}

// The historical Check* surface — CheckSum / CheckMax / CheckSwapStable
// crossed with their *Batched twins — collapsed into the single
// Check(g, CheckSpec) entry point (spec.go). The three base names survive
// below as one-line deprecated wrappers with unchanged signatures,
// verdicts, and witnesses, so golden traces and examples stay
// bit-identical; the *Batched twins were removed once every check took
// the shared-row path by itself.

// unwrap adapts a Verdict to the historical (ok, violation, error) shape.
func unwrap(v Verdict, err error) (bool, *Violation, error) {
	return v.Stable, v.Violation, err
}

// CheckSum reports whether g is in sum equilibrium: no edge swap strictly
// decreases the moving agent's total distance. On failure a witness
// violation is returned. workers <= 0 selects par.DefaultWorkers.
// Returns ErrDisconnected for disconnected input.
//
// Deprecated: use Check with CheckSpec{Objective: Sum, Workers: workers}.
func CheckSum(g *graph.Graph, workers int) (bool, *Violation, error) {
	return unwrap(Check(g, CheckSpec{Objective: Sum, Workers: workers}))
}

// CheckMax reports whether g is in max equilibrium: no edge swap strictly
// decreases the moving agent's local diameter, and deleting any edge
// strictly increases the local diameter of the agent. On failure a witness
// violation is returned. workers <= 0 selects par.DefaultWorkers.
//
// Deprecated: use Check with CheckSpec{Objective: Max, Workers: workers}.
func CheckMax(g *graph.Graph, workers int) (bool, *Violation, error) {
	return unwrap(Check(g, CheckSpec{Objective: Max, Workers: workers}))
}

// CheckSwapStable reports whether no single swap strictly improves any
// agent under obj. For Sum this coincides with sum equilibrium; for Max it
// is the weaker half of max equilibrium that swap dynamics converge to
// (the deletion-criticality condition is checked separately by
// IsDeletionCritical). Agents are scanned in ascending order with each
// agent's candidate scan sharded across workers (the engine's
// deterministic first-improvement merge), so the witness is identical for
// any worker count and single-agent workloads on huge n use every worker.
//
// Deprecated: use Check with CheckSpec{Objective: obj, StableOnly: true}.
func CheckSwapStable(g *graph.Graph, obj Objective, workers int) (bool, *Violation, error) {
	return unwrap(Check(g, CheckSpec{Objective: obj, StableOnly: true, Workers: workers}))
}

// CheckSwapEquilibrium is CheckSwapStable under the paper's name for the
// condition dynamics converge to: no single swap strictly improves any
// agent. Certification sweeps (dynamics.Run, Session.FindImprovement) and
// this one-shot checker must agree on every graph; the regression tests in
// internal/dynamics pin that.
//
// Deprecated: use Check with CheckSpec{Objective: obj, StableOnly: true}.
func CheckSwapEquilibrium(g *graph.Graph, obj Objective, workers int) (bool, *Violation, error) {
	return CheckSwapStable(g, obj, workers)
}

// LocalDiameterSpread returns max_v ecc(v) − min_v ecc(v). Lemma 2 of the
// paper proves the spread is at most 1 in any max equilibrium.
func LocalDiameterSpread(g *graph.Graph) (int, error) {
	if g.N() == 0 {
		return 0, ErrDisconnected
	}
	lo, hi := -1, -1
	for v := 0; v < g.N(); v++ {
		ecc, ok := g.Eccentricity(v)
		if !ok {
			return 0, ErrDisconnected
		}
		if lo < 0 || ecc < lo {
			lo = ecc
		}
		if ecc > hi {
			hi = ecc
		}
	}
	return hi - lo, nil
}
