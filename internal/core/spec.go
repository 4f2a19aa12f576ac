package core

import (
	"context"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/pricing"
)

// CheckSpec selects one equilibrium check: which deviation model, which
// usage cost, and which half of the max condition. It is the single
// request shape the historical CheckSum / CheckMax / CheckSwapStable ×
// *Batched surface collapsed into: every one of those names is now a
// one-line wrapper over Check with a fixed spec, and the service layer
// (internal/serve) and the CLI share the same struct.
//
// The execution path is not part of the spec: Check takes the shared-row
// path (game.UsesSharedRows) whenever the model has one and the graph's
// row arenas fit in pricing.RowCacheMaxBytes, and the per-agent path
// otherwise. Verdict.Batched reports which one ran.
//
// The zero value checks full sum equilibrium of the basic swap game with
// default workers.
type CheckSpec struct {
	// Model is the deviation model; nil selects the basic swap game
	// (game.Swap). The swap model runs the paper's checkers (connectivity
	// gate, deletion-criticality side condition); every other model is
	// certified by its own stability sweep.
	Model game.Model
	// Objective is the usage cost (Sum or Max). Models that price without
	// a distance objective (TwoNeighborhood) ignore it.
	Objective Objective
	// StableOnly skips the max version's deletion-criticality side
	// condition, checking only that no single move strictly improves any
	// agent — the condition move dynamics converge to (the historical
	// CheckSwapStable). It is a no-op under Sum and for non-swap models,
	// whose stability has no side conditions.
	StableOnly bool
	// Batched is accepted and ignored: the engine picks the execution
	// path itself (see CheckSpec).
	//
	// Deprecated: every check and trajectory takes the shared-row path
	// when the model has one and the graph fits; Verdict.Batched and
	// dynamics.Result.Batched report the path that ran.
	Batched bool
	// Workers bounds the pricing parallelism (<= 0 means all cores).
	// Verdicts and witnesses are identical for every worker count.
	Workers int
}

// Verdict is the outcome of a Check: the stability bit and, on failure,
// the witness violation.
type Verdict struct {
	// Stable reports whether the graph passed the spec'd check.
	Stable bool
	// Violation is the witness on failure (nil when Stable).
	Violation *Violation
	// Batched reports whether the shared-row pass actually ran — false
	// when the model lacks one (2nb) or the graph is too large for its row
	// arenas, and the check ran the per-agent sweep.
	Batched bool
}

// Check runs the equilibrium check selected by spec on g. It is the one
// entry point behind the deprecated CheckSum / CheckMax / CheckSwapStable
// × *Batched names and returns bit-identically their verdicts and
// witnesses for the corresponding specs.
func Check(g *graph.Graph, spec CheckSpec) (Verdict, error) {
	return CheckCtx(context.Background(), g, spec)
}

// CheckCtx is Check with cooperative cancellation: ctx is polled between
// per-agent scans and, on the shared-row path, between candidate
// endpoints, and its error is returned on expiry. The service layer uses
// it to enforce per-request timeouts mid-scan.
func CheckCtx(ctx context.Context, g *graph.Graph, spec CheckSpec) (Verdict, error) {
	return check(ctx, g, spec, true)
}

// CheckPerAgent runs spec's check on the per-agent path whatever the
// model and size: the reference the shared-row path is pinned against
// (the atlas certifies every entry through both and requires identical
// verdicts and witnesses).
func CheckPerAgent(g *graph.Graph, spec CheckSpec) (Verdict, error) {
	return check(context.Background(), g, spec, false)
}

// UsesSharedRows reports whether Check certifies g under model (nil means
// the swap game) on the shared-row path — the Verdict.Batched bit a check
// of g reports. It is a function of the model and the graph's size only.
func UsesSharedRows(model game.Model, g *graph.Graph) bool {
	if model == nil {
		model = game.Swap{}
	}
	if _, isSwap := model.(game.Swap); isSwap {
		return pricing.RowCacheFits(g.N())
	}
	inst := model.New(g, 1)
	defer game.CloseInstance(inst)
	return game.UsesSharedRows(inst)
}

func check(ctx context.Context, g *graph.Graph, spec CheckSpec, sharedOK bool) (Verdict, error) {
	model := spec.Model
	if model == nil {
		model = game.Swap{}
	}
	if _, isSwap := model.(game.Swap); isSwap {
		deletionCritical := !spec.StableOnly
		shared := sharedOK && pricing.RowCacheFits(g.N())
		var (
			ok   bool
			viol *Violation
			err  error
		)
		if shared {
			ok, viol, err = game.CheckSwapBatchedCtx(ctx, g, spec.Objective, spec.Workers, deletionCritical)
		} else {
			ok, viol, err = game.CheckSwapCtx(ctx, g, spec.Objective, spec.Workers, deletionCritical)
		}
		if err != nil {
			return Verdict{}, err
		}
		return Verdict{Stable: ok, Violation: viol, Batched: shared}, nil
	}
	inst := model.New(g, spec.Workers)
	defer game.CloseInstance(inst)
	shared := sharedOK && game.UsesSharedRows(inst)
	ok, viol, err := game.CheckStableCtx(ctx, inst, spec.Objective, shared)
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{Stable: ok, Violation: viol, Batched: shared}, nil
}
