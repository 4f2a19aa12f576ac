package game

import (
	"context"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/pricing"
)

// This file is the context-aware face of the certification machinery: the
// same sweeps as CheckSwap / Instance.CheckStable / the batched passes,
// with cooperative cancellation polled between per-agent scan units. A
// long-lived service (internal/serve) needs to abandon a half-done
// whole-graph sweep when the client's deadline expires; the per-agent scan
// is the natural poll granularity — each unit is one bounded bundle of BFS
// work, so cancellation latency is one agent's scan, not one whole sweep.
// All *Ctx functions return ctx.Err() on cancellation and are otherwise
// bit-identical to their context-free counterparts (which delegate here
// with a nil context).

// pollCtx reports the context's error, tolerating a nil context (never
// cancels). It is called between per-agent scan units.
func pollCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// cancelHook adapts ctx to a scan cancel hook (pricing.Session.SetCancel):
// an atomic flag that context.AfterFunc raises on expiry, so the
// per-endpoint poll costs one atomic load. Contexts that can never be
// cancelled (nil, Background) yield a nil hook. release stops the watcher.
func cancelHook(ctx context.Context) (hook func() bool, release func()) {
	if ctx == nil || ctx.Done() == nil {
		return nil, func() {}
	}
	var stop atomic.Bool
	unwatch := context.AfterFunc(ctx, func() { stop.Store(true) })
	return stop.Load, func() { unwatch() }
}

// CheckSwapCtx is CheckSwap with cooperative cancellation: ctx is polled
// between per-agent scans and its error returned on expiry. Verdict and
// witness are bit-identical to CheckSwap for any worker count.
func CheckSwapCtx(ctx context.Context, g *graph.Graph, obj Objective, workers int, deletionCritical bool) (bool, *Violation, error) {
	n := g.N()
	if n <= 1 {
		return true, nil, nil
	}
	if !g.IsConnected() {
		return false, nil, ErrDisconnected
	}
	found, err := swapScan(ctx, g.Freeze(), obj, normWorkers(workers), deletionCritical)
	if err != nil {
		return false, nil, err
	}
	return found == nil, found, nil
}

// HasBatchedSweep reports whether the instance ships a shared-row
// certification pass (BatchedSweeper).
func HasBatchedSweep(inst Instance) bool {
	_, ok := inst.(BatchedSweeper)
	return ok
}

// UsesSharedRows reports whether checks and trajectories on inst take the
// shared-row path: the instance has a shared-row pass and its graph's row
// arenas fit in pricing.RowCacheMaxBytes. Otherwise they run the
// per-agent scans, which are also the reference the shared-row path is
// pinned against.
func UsesSharedRows(inst Instance) bool {
	return HasBatchedSweep(inst) && pricing.RowCacheFits(inst.Graph().N())
}

// FindImprovementCtx is the shared certification sweep (agents ascending,
// first improving move in the instance's enumeration order) with ctx
// polled between agents. The found result is identical to
// Instance.FindImprovement.
func FindImprovementCtx(ctx context.Context, inst Instance, obj Objective) (m Move, oldCost, newCost int64, ok bool, err error) {
	n := inst.Graph().N()
	for v := 0; v < n; v++ {
		if err := pollCtx(ctx); err != nil {
			return Move{}, 0, 0, false, err
		}
		if m, oldCost, newCost, ok := inst.FirstImproving(v, obj); ok {
			return m, oldCost, newCost, true, nil
		}
	}
	return Move{}, 0, 0, false, nil
}

// CheckStableCtx certifies the instance's position like
// Instance.CheckStable for the models whose stability is exactly the
// certification sweep (greedy, interests, budget, 2-neighborhood — the
// swap model's one-shot checks go through CheckSwapCtx instead, which adds
// the connectivity gate and deletion-criticality side condition). With
// batched set the sweep routes through the instance's shared-row pass when
// it has one (bit-identical results; ctx is then polled between candidate
// endpoints through the instance's scan cancel hook) and falls back to the
// per-agent ctx sweep otherwise.
func CheckStableCtx(ctx context.Context, inst Instance, obj Objective, batched bool) (bool, *Violation, error) {
	var (
		m                Move
		oldCost, newCost int64
		found            bool
	)
	if b, ok := inst.(BatchedSweeper); batched && ok {
		if err := pollCtx(ctx); err != nil {
			return false, nil, err
		}
		hook, release := cancelHook(ctx)
		defer release()
		if hook != nil && SetScanCancel(inst, hook) {
			defer SetScanCancel(inst, nil)
		}
		m, oldCost, newCost, found = b.FindImprovementBatched(obj)
		if err := pollCtx(ctx); err != nil {
			return false, nil, err
		}
	} else {
		var err error
		m, oldCost, newCost, found, err = FindImprovementCtx(ctx, inst, obj)
		if err != nil {
			return false, nil, err
		}
	}
	if !found {
		return true, nil, nil
	}
	return false, &Violation{
		Kind: SwapImproves, Move: m, Agent: m.V,
		OldCost: oldCost, NewCost: newCost,
	}, nil
}
