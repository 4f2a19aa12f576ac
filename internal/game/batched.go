package game

import (
	"context"

	"repro/internal/graph"
	"repro/internal/pricing"
	"repro/internal/scan"
)

// This file implements the shared-row certification sweep: a whole-graph
// pass that reuses candidate-endpoint BFS rows across deviators instead of
// recomputing them per agent. It is the path every check and trajectory
// takes for the models that have it, whenever the graph's rows fit in
// pricing.RowCacheMaxBytes (UsesSharedRows).
//
// The per-agent sweep pays one BFS of G−v per candidate endpoint per
// deviator — Θ(n) BFS per agent, Θ(n²) for a full certification. The
// shared-row pass instead reads full-graph rows d_G(w,·) (at most n BFS,
// n² int32 of memory — the memory-for-time trade) and observes that
// d_G(w,x) ≤ d_{G−v}(w,x) pointwise, so the patched cost
//
//	Σ_x (or max_x) min(d_{G−vw}(v,x), 1 + d_G(w',x))
//
// is a sound lower bound on the exact post-swap cost: a candidate whose
// bound already prices at or above the admission threshold can be
// discarded without paying its exact G−v BFS, and only flagged candidates
// (those whose shortest paths to some target may run through the deviator)
// are verified exactly. In and near equilibrium — the regime certification
// sweeps live in — almost nothing is flagged, and a full pass costs
// n + 2m + #verified BFS instead of n². The enumeration order, admission
// threshold, and exactness of every returned witness are unchanged, so the
// shared-row sweep returns bit-identically the same verdict and
// (lowest-agent, enumeration-first) witness as the per-agent
// FindImprovement.
//
// The shared rows live in the session's pricing.RowCache, which computes
// each row on its first read and invalidates only the rows an applied move
// can change. A check that exits at an early agent therefore pays only for
// the rows that agent's scan read, and consecutive sweeps of a trajectory
// (the random-improving certification loop) pay #invalidated BFS instead
// of n per sweep.

// scanAddMajorBatched is scanAddMajor with the shared-row filter in
// front: each candidate is first priced against the endpoint's full-graph
// row (a lower bound on its exact cost — deleting the deviator can only
// lengthen the endpoint's distances), and only candidates whose bound
// passes the admission threshold pay the exact d_{G−v}(add,·) BFS,
// computed at most once per endpoint and shared across its dropped edges.
// price must be monotone in its row argument (all the Patched*Below
// reducers are), which makes the filter sound; exactness of the returned
// candidate is untouched, so the result is bit-identical to
// scanAddMajor's for any worker count. firstOnly selects the
// first-improving engine mode (the certification sweeps); otherwise the
// minimum under order — ByEnumeration for the add-major models,
// ByDropFirst for the swap model's best-move tie-break — strictly below
// cur is returned, matching the unfiltered per-agent scan observably
// (an admitted winner is identical; no candidate below cur is identical
// to a best move that fails the strict-improvement check).
func scanAddMajorBatched(eng *pricing.Engine, view pricing.Snapshot, ps *pricing.Scan,
	workers int, rows pricing.RowView, skipAdd func(add int) bool,
	price func(dropIdx int, dw []int32, threshold int64) (int64, bool),
	cur int64, firstOnly bool, order scan.Order) (scan.Cand, bool) {
	v := ps.V()
	drops := ps.Drops()
	if len(drops) == 0 {
		return scan.Cand{}, false
	}
	spec := scan.Spec{
		Workers:   workers,
		N:         view.N(),
		Threshold: cur,
		Order:     order,
		Skip: func(add int) bool {
			return add == v || (skipAdd != nil && skipAdd(add))
		},
		Cancel: ps.CancelHook(),
	}
	pricer := func(ws bfsRow, add int, threshold func() int64, yield func(int, int64) bool) {
		shared := rows.Row(add)
		exact := false
		for i := range drops {
			if _, maybe := price(i, shared, threshold()); !maybe {
				continue
			}
			if !exact {
				view.BFSSkipVertex(add, v, ws.dist, ws.queue)
				exact = true
			}
			if c, below := price(i, ws.dist, threshold()); below {
				if !yield(i, c) {
					return
				}
			}
		}
	}
	state := scratchState(eng, view.N())
	if firstOnly {
		return scan.First(spec, state, pricer)
	}
	return scan.Best(spec, state, pricer)
}

// BatchedSweeper is the optional Instance capability for batched
// whole-graph certification. Implementations must return bit-identically
// the same result as their FindImprovement; the difference is purely
// performance (endpoint-row reuse across deviators and, for session-backed
// instances, across sweeps) bought with O(n²) resident memory.
type BatchedSweeper interface {
	// FindImprovementBatched is FindImprovement computed via the batched
	// cross-agent pass: same contract, same witness, same costs.
	FindImprovementBatched(obj Objective) (m Move, oldCost, newCost int64, ok bool)
}

// FindImprovementBatched runs the batched certification sweep when the
// instance supports it and falls back to the per-agent FindImprovement
// otherwise (naive oracles, BFS-free models). Callers can therefore
// request batching unconditionally.
func FindImprovementBatched(inst Instance, obj Objective) (Move, int64, int64, bool) {
	if b, ok := inst.(BatchedSweeper); ok {
		return b.FindImprovementBatched(obj)
	}
	return inst.FindImprovement(obj)
}

// sharedVertex configures one agent's shared-row scan for a swap-move
// session model: the agent's current cost, its endpoint filter, and its
// thresholded price reduction over the scan's dropped-edge rows. The
// three swap-move models differ only here.
type sharedVertex func(v int, sc *pricing.Scan) (cur int64, skipAdd func(add int) bool,
	price func(dropIdx int, dw []int32, threshold int64) (int64, bool))

// scanShared runs agent v's candidate scan with the shared-row filter in
// front — the first improving candidate in enumeration order (firstOnly)
// or the minimum under order strictly below the current cost — and
// returns the move with the agent's current and new cost.
func scanShared(eng *pricing.Engine, ps *pricing.Session, workers, v int, vertex sharedVertex,
	firstOnly bool, order scan.Order) (Move, int64, int64, bool) {
	sc := ps.NewScan(v)
	defer sc.Close()
	cur, skipAdd, price := vertex(v, sc)
	cand, found := scanAddMajorBatched(eng, ps.View(), sc, workers, ps.RowCache().View(),
		skipAdd, price, cur, firstOnly, order)
	if !found {
		return Move{}, cur, cur, false
	}
	return Move{V: v, Drop: int(sc.Drops()[cand.DropIdx]), Add: cand.Add}, cur, cand.Cost, true
}

// batchedFindImprovement is the one shared-row certification sweep the
// swap-move session models share: agents ascending, each agent's
// first-improving shared-row scan. The session's cancel hook, when
// installed, is also polled between agents; a cancelled sweep's result is
// unspecified.
func batchedFindImprovement(eng *pricing.Engine, ps *pricing.Session, workers int, vertex sharedVertex) (Move, int64, int64, bool) {
	cancel := ps.CancelHook()
	for v := 0; v < ps.N(); v++ {
		if cancel != nil && cancel() {
			break
		}
		if m, cur, c, ok := scanShared(eng, ps, workers, v, vertex, true, scan.ByEnumeration); ok {
			return m, cur, c, true
		}
	}
	return Move{}, 0, 0, false
}

// sharedVertex prices the basic swap under obj.
func (s *SwapSession) sharedVertex(obj Objective) sharedVertex {
	po := pobj(obj)
	view := s.ps.View()
	return func(v int, sc *pricing.Scan) (int64, func(int) bool, func(int, []int32, int64) (int64, bool)) {
		return sc.CurrentUsage(po),
			func(add int) bool { return view.HasEdge(v, add) },
			func(i int, dw []int32, threshold int64) (int64, bool) {
				return pricing.PatchedBelow(sc.DropRow(i), dw, po, threshold)
			}
	}
}

// FindImprovementBatched is the swap model's batched certification sweep:
// agents ascending, each agent's candidate scan filtered through the
// shared full-graph rows, which persist in the session's RowCache across
// sweeps. It returns exactly FindImprovement's result.
func (s *SwapSession) FindImprovementBatched(obj Objective) (Move, int64, int64, bool) {
	return batchedFindImprovement(s.eng, s.ps, s.workers, s.sharedVertex(obj))
}

// sharedVertex restricts the swap's cost and price reduction to v's
// interest set.
func (s *interestsSession) sharedVertex(obj Objective) sharedVertex {
	po := pobj(obj)
	view := s.ps.View()
	return func(v int, sc *pricing.Scan) (int64, func(int) bool, func(int, []int32, int64) (int64, bool)) {
		set := s.model.set(v)
		return pricing.UsageSubset(sc.CurrentRow(), set, po),
			func(add int) bool { return view.HasEdge(v, add) },
			func(i int, dw []int32, threshold int64) (int64, bool) {
				return pricing.PatchedSubsetBelow(sc.DropRow(i), dw, set, po, threshold)
			}
	}
}

// FindImprovementBatched is the interests model's batched certification
// sweep; the interest-restricted reductions run against the shared rows
// first, exact rows only for flagged candidates.
func (s *interestsSession) FindImprovementBatched(obj Objective) (Move, int64, int64, bool) {
	return batchedFindImprovement(s.eng, s.ps, s.workers, s.sharedVertex(obj))
}

// sharedVertex skips over-budget endpoints, which are infeasible for
// every deviator, before their shared row is ever read — and therefore
// before it is ever computed. The RowCache keeps rows of endpoints that
// drift in and out of budget: a row cached while feasible stays valid
// (invalidation tracks distance changes, not feasibility) and is simply
// not read while the endpoint is over budget.
func (s *budgetSession) sharedVertex(obj Objective) sharedVertex {
	po := pobj(obj)
	view := s.ps.View()
	return func(v int, sc *pricing.Scan) (int64, func(int) bool, func(int, []int32, int64) (int64, bool)) {
		return sc.CurrentUsage(po),
			func(add int) bool { return view.HasEdge(v, add) || view.Degree(add) >= s.k },
			func(i int, dw []int32, threshold int64) (int64, bool) {
				return pricing.PatchedBelow(sc.DropRow(i), dw, po, threshold)
			}
	}
}

// FindImprovementBatched is the budget model's batched certification
// sweep.
func (s *budgetSession) FindImprovementBatched(obj Objective) (Move, int64, int64, bool) {
	return batchedFindImprovement(s.eng, s.ps, s.workers, s.sharedVertex(obj))
}

// FindImprovementBatched is the greedy model's batched certification
// sweep: agents ascending, each agent's staged scan (adds, deletions,
// swaps) priced through the shared full-graph rows. The greedy model is
// the batched pass's best case — its add stage prices candidates from
// exactly the rows the cache holds (d_{G+vw}(v,·) patches d_G(v,·) with
// d_G(w,·); no deviator is excluded), so adds need no verification BFS at
// all; deletions price free from the scan's dropped-edge rows as before;
// only the swap stage keeps the filter-then-verify shape of the swap
// model. Results are bit-identical to FindImprovement.
func (s *greedySession) FindImprovementBatched(obj Objective) (Move, int64, int64, bool) {
	rows := s.ps.RowCache().View()
	cancel := s.ps.CancelHook()
	n := s.ps.N()
	for v := 0; v < n; v++ {
		if cancel != nil && cancel() {
			break
		}
		if m, cur, newCost, ok := s.scanMovesBatched(v, obj, rows, true); ok {
			return m, cur, newCost, true
		}
	}
	return Move{}, 0, 0, false
}

// scanMovesBatched is scanMoves priced through the shared rows: the same
// three stages in the same enumeration order with the same
// running-threshold handoff and the same firstOnly semantics, so the
// returned move is bit-identical for any worker count.
func (s *greedySession) scanMovesBatched(v int, obj Objective, rows pricing.RowView, firstOnly bool) (best Move, oldCost, newCost int64, ok bool) {
	po := pobj(obj)
	view := s.ps.View()
	n := view.N()
	psc := s.ps.NewScan(v)
	defer psc.Close()
	deg := int64(view.Degree(v))
	cur := s.edgeCost*deg + psc.CurrentUsage(po)
	bestCost := cur
	state := scratchState(s.eng, n)
	skipKnown := func(add int) bool { return add == v || view.HasEdge(v, add) }
	runStage := func(pricer scan.Pricer[bfsRow], toMove func(c scan.Cand) Move) bool {
		spec := scan.Spec{
			Workers:   s.workers,
			N:         n,
			Threshold: bestCost,
			Order:     scan.ByEnumeration,
			Skip:      skipKnown,
			Cancel:    psc.CancelHook(),
		}
		var c scan.Cand
		var found bool
		if firstOnly {
			c, found = scan.First(spec, state, pricer)
		} else {
			c, found = scan.Best(spec, state, pricer)
		}
		if found {
			best, bestCost, ok = toMove(c), c.Cost, true
		}
		return found && firstOnly
	}

	// Adds: the shared row IS the exact post-add endpoint row — adding vw
	// excludes no vertex, so d_{G+vw}(v,·) = min(d_G(v,·), 1+d_G(w,·))
	// prices exactly from the cache with no BFS and no verification pass.
	addOffset := s.edgeCost * (deg + 1)
	addPricer := func(_ bfsRow, add int, threshold func() int64, yield func(int, int64) bool) {
		if c, below := pricing.PatchedBelow(psc.CurrentRow(), rows.Row(add), po, threshold()-addOffset); below {
			yield(0, addOffset+c)
		}
	}
	if runStage(addPricer, func(c scan.Cand) Move { return Move{Kind: KindAdd, V: v, Add: c.Add} }) {
		return best, cur, bestCost, true
	}

	// Deletions: the scan's dropped-edge rows price them for free, exactly
	// as in the per-agent scan.
	for i, w := range psc.Drops() {
		if c := s.edgeCost*(deg-1) + psc.DeletionUsage(i, po); c < bestCost {
			best, bestCost, ok = Move{Kind: KindDelete, V: v, Drop: int(w)}, c, true
			if firstOnly {
				return best, cur, bestCost, true
			}
		}
	}

	// Swaps: the swap model's filter-then-verify — the shared row lower-
	// bounds the deviator-excluded row, flagged candidates pay one exact
	// BFS shared across dropped edges.
	swapOffset := s.edgeCost * deg
	drops := psc.Drops()
	swapPricer := func(ws bfsRow, add int, threshold func() int64, yield func(int, int64) bool) {
		shared := rows.Row(add)
		exact := false
		for i := range drops {
			if _, maybe := pricing.PatchedBelow(psc.DropRow(i), shared, po, threshold()-swapOffset); !maybe {
				continue
			}
			if !exact {
				view.BFSSkipVertex(add, v, ws.dist, ws.queue)
				exact = true
			}
			if c, below := pricing.PatchedBelow(psc.DropRow(i), ws.dist, po, threshold()-swapOffset); below {
				if !yield(i, swapOffset+c) {
					return
				}
			}
		}
	}
	runStage(swapPricer, func(c scan.Cand) Move {
		return Move{Kind: KindSwap, V: v, Drop: int(drops[c.DropIdx]), Add: c.Add}
	})
	return best, cur, bestCost, ok
}

// CheckSwapBatched is CheckSwap computed via the shared-row pass: same
// verdict, same deterministic witness (deletion-criticality checks still
// run per agent from the scan's dropped-edge rows; only the
// candidate-endpoint BFS reuse changes). One pricing session, whose
// RowCache computes each shared row on first read, and exact verification
// for flagged candidates only.
func CheckSwapBatched(g *graph.Graph, obj Objective, workers int, deletionCritical bool) (bool, *Violation, error) {
	return CheckSwapBatchedCtx(nil, g, obj, workers, deletionCritical)
}

// CheckSwapBatchedCtx is CheckSwapBatched with cooperative cancellation:
// ctx (nil tolerated) is polled between candidate endpoints inside each
// agent's scan — so an expiry aborts within one row or verification BFS —
// and between agents, and its error is returned on expiry. Verdict and
// witness are bit-identical to CheckSwapBatched.
func CheckSwapBatchedCtx(ctx context.Context, g *graph.Graph, obj Objective, workers int, deletionCritical bool) (bool, *Violation, error) {
	n := g.N()
	if n <= 1 {
		return true, nil, nil
	}
	if !g.IsConnected() {
		return false, nil, ErrDisconnected
	}
	s := NewSwapSession(g, workers)
	defer s.Close()
	hook, release := cancelHook(ctx)
	defer release()
	s.ps.SetCancel(hook)
	vertex := s.sharedVertex(obj)
	rows := s.ps.RowCache().View()
	for v := 0; v < n; v++ {
		if err := pollCtx(ctx); err != nil {
			return false, nil, err
		}
		sc := s.ps.NewScan(v)
		cur, skipAdd, price := vertex(v, sc)
		if obj == Max && deletionCritical {
			if viol := deletionViolation(sc, v, cur); viol != nil {
				sc.Close()
				return false, viol, nil
			}
		}
		cand, ok := scanAddMajorBatched(s.eng, s.ps.View(), sc, s.workers, rows, skipAdd, price, cur,
			true, scan.ByEnumeration)
		drops := sc.Drops()
		sc.Close()
		if err := pollCtx(ctx); err != nil {
			return false, nil, err
		}
		if ok {
			return false, &Violation{
				Kind:    SwapImproves,
				Move:    Move{V: v, Drop: int(drops[cand.DropIdx]), Add: cand.Add},
				Agent:   v,
				OldCost: cur,
				NewCost: cand.Cost,
			}, nil
		}
	}
	return true, nil, nil
}
