// Package dynamics runs move dynamics for network creation games: agents
// repeatedly perform improving moves until no agent can improve (an
// equilibrium of the game's deviation model) or a move budget is
// exhausted. Three scheduling policies are provided — deterministic
// round-robin best response, deterministic first improvement, and seeded
// random improving moves — all of which terminate in a certified
// equilibrium when they converge, because convergence is declared only
// after a full exhaustive pass finds no improving move.
//
// The deviation model is pluggable (Options.Model, a game.Model): the
// default Swap model is the source paper's basic game, Greedy adds
// single-edge buy/delete moves with edge-cost accounting, Interests
// restricts each agent's cost to its communication-interest set, Budget
// caps how many edges a vertex may maintain (re-points must target a
// vertex with spare budget), and TwoNeighborhood swaps to maximize
// |N₂(v)| instead of minimizing a distance cost. The
// driver is generic in the model; every trajectory runs inside one
// incremental pricing instance (model.New): the starting graph is thawed
// into a mutable CSR once, each applied move patches the snapshot in
// O(deg) instead of re-freezing in O(n+m), and every probe, sweep, and
// certification pass prices against the live snapshot. NaiveRun drives the
// same policies through the model's oracle instance (model.Naive —
// re-freeze / apply-measure-revert pricing); trajectories are bit-identical
// between the two paths for every model, policy, and worker count, which
// the differential tests pin move-for-move.
//
// Move dynamics need not converge in general (the games are not potential
// games), so Run enforces MaxMoves and reports Converged=false when the
// budget is exhausted; in practice the experiments converge quickly.
package dynamics

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/graph"
)

// Policy selects the move scheduling rule.
type Policy int

const (
	// BestResponse sweeps vertices round-robin; each vertex plays its
	// cost-minimizing improving move, if any.
	BestResponse Policy = iota
	// FirstImprovement sweeps vertices round-robin; each vertex plays the
	// first improving move found in the model's deterministic scan order.
	// For the swap model the order is the pricing engine's add-major
	// enumeration (see core.PriceSwaps); it differs from the pre-engine
	// drop-major order, so trajectories differ from older builds while
	// remaining deterministic and terminating in the same certified
	// equilibria.
	FirstImprovement
	// RandomImproving samples random candidate moves; a certification
	// sweep declares equilibrium once random probing stops finding moves.
	RandomImproving
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case BestResponse:
		return "best-response"
	case FirstImprovement:
		return "first-improvement"
	case RandomImproving:
		return "random-improving"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Spec configures a dynamics run. It embeds core.CheckSpec — the same
// struct that selects an equilibrium check — so the model, objective, and
// worker budget are declared once and shared verbatim between one-shot
// checks, dynamics, and the service layer. The zero value is a usable
// sum-version best-response run of the basic swap game with default
// budgets.
//
// CheckSpec fields under dynamics semantics:
//
//   - Model: the deviation model (nil means game.Swap{}, the basic game).
//   - Objective: the usage cost agents minimize.
//   - Workers: pricing parallelism of every policy (<= 0 means all
//     cores); trajectories are bit-identical for every worker count.
//   - Batched: accepted and ignored. The whole trajectory runs through
//     the shared-row machinery whenever the model has it and the graph's
//     row arenas fit (game.UsesSharedRows): certification sweeps through
//     the shared-row pass (game.BatchedSweeper), the sweeping policies'
//     per-agent scans through the session row cache
//     (game.RowCachedScanner), and the random policy's probes through
//     thresholded cached-row rejection (game.MoveBelowPricer). Every
//     routed path returns observably identical moves and costs to the
//     per-agent paths that 2nb, the naive oracles and oversized graphs
//     run; Result.Batched reports which one ran.
//   - StableOnly: ignored — dynamics certify exactly the no-improving-move
//     condition.
type Spec struct {
	core.CheckSpec
	// Policy selects the move scheduling rule.
	Policy Policy
	// MaxMoves caps the number of applied moves (default 10_000).
	MaxMoves int
	// Seed drives RandomImproving sampling (ignored by the deterministic
	// policies).
	Seed int64
	// PatienceFactor scales how many consecutive failed random samples
	// trigger a certification sweep (default 20, multiplied by the
	// starting edge count).
	PatienceFactor int
	// Trace records every applied move when true.
	Trace bool
	// OnMove, when non-nil, is called synchronously with each applied
	// move's trace entry, in application order, whether or not Trace is
	// set. It observes the same entries Trace would record; the callback
	// runs on the dynamics goroutine, so a slow observer slows the run.
	OnMove func(TraceEntry)
}

// Options is the historical flat configuration of a dynamics run.
//
// Deprecated: use Spec, which embeds core.CheckSpec instead of re-growing
// one positional field per engine capability. Options converts losslessly
// via Spec(); Run and NaiveRun keep accepting it unchanged.
type Options struct {
	Objective core.Objective
	Policy    Policy
	// Model selects the deviation model (nil means game.Swap{}, the basic
	// game).
	Model game.Model
	// Workers bounds the pricing parallelism of every policy (<= 0 means
	// all cores).
	Workers int
	// MaxMoves caps the number of applied moves (default 10_000).
	MaxMoves int
	// Seed drives RandomImproving sampling.
	Seed int64
	// PatienceFactor scales the random policy's certification patience.
	PatienceFactor int
	// BatchedSweeps is accepted and ignored, like CheckSpec.Batched.
	BatchedSweeps bool
	// Trace records every applied move when true.
	Trace bool
}

// Spec converts the deprecated flat options to the spec shape.
func (o Options) Spec() Spec {
	return Spec{
		CheckSpec: core.CheckSpec{
			Model:     o.Model,
			Objective: o.Objective,
			Batched:   o.BatchedSweeps,
			Workers:   o.Workers,
		},
		Policy:         o.Policy,
		MaxMoves:       o.MaxMoves,
		Seed:           o.Seed,
		PatienceFactor: o.PatienceFactor,
		Trace:          o.Trace,
	}
}

// model resolves the deviation model.
func (s *Spec) model() game.Model {
	if s.Model == nil {
		return game.Swap{}
	}
	return s.Model
}

// TraceEntry records one applied move and the mover's cost change,
// together with the social cost after the move — individual improvements
// do not imply social improvement (the games have no potential function),
// and the trace makes that observable.
type TraceEntry struct {
	Move       core.Move
	OldCost    int64
	NewCost    int64
	SocialCost int64 // social cost under the run's objective, post-move
	MoveRank   int   // 1-based index in the run
}

// BatchedState reports which path a run took: the shared-row machinery
// (active), or the per-agent scans (fallback) because the instance has no
// shared-row pass (2-neighborhood and every naive oracle) or the graph's
// row arenas exceed pricing.RowCacheMaxBytes. Result and the CLI surface
// it.
type BatchedState int

const (
	// BatchedOff is no longer reported: the engine picks the path itself.
	//
	// Deprecated: runs report BatchedActive or BatchedFallback.
	BatchedOff BatchedState = iota
	// BatchedActive: certification sweeps, scans and probes route through
	// the session row cache's shared rows.
	BatchedActive
	// BatchedFallback: the run took the per-agent paths (identical
	// results, none of the endpoint-row reuse).
	BatchedFallback
)

// String renders the state for CLI / service output.
func (s BatchedState) String() string {
	switch s {
	case BatchedOff:
		return "off"
	case BatchedActive:
		return "active"
	case BatchedFallback:
		return "fallback"
	default:
		return fmt.Sprintf("BatchedState(%d)", int(s))
	}
}

// Result reports the outcome of a dynamics run. The input graph is mutated
// in place and is the equilibrium graph when Converged is true.
type Result struct {
	Converged bool
	Moves     int
	Sweeps    int // full certification / improvement sweeps performed
	// Batched reports whether the run took the shared-row path or fell
	// back to per-agent sweeps.
	Batched BatchedState
	// RowsRecomputed and RowsInvalidated report the session row cache's
	// work over the trajectory — BFS rows computed on first read, and rows
	// flagged by applied moves' invalidation tests. Both are zero when the
	// run never attached a cache (a fallback run); together they make
	// cache effectiveness observable per trajectory. With more than one
	// worker both depend on scheduling: a first-improving scan may price,
	// and so fill rows of, endpoints past its winner.
	RowsRecomputed  uint64
	RowsInvalidated uint64
	Trace           []TraceEntry
}

// ErrTooSmall is returned for graphs with fewer than 2 vertices.
var ErrTooSmall = errors.New("dynamics: graph needs at least 2 vertices")

func validate(g *graph.Graph, opt *Spec) error {
	if g.N() < 2 {
		return ErrTooSmall
	}
	if !g.IsConnected() {
		return core.ErrDisconnected
	}
	if opt.MaxMoves <= 0 {
		opt.MaxMoves = 10000
	}
	if opt.PatienceFactor <= 0 {
		opt.PatienceFactor = 20
	}
	switch opt.Policy {
	case BestResponse, FirstImprovement, RandomImproving:
		return nil
	default:
		return fmt.Errorf("dynamics: unknown policy %v", opt.Policy)
	}
}

// Run executes move dynamics on g (mutating it) until equilibrium or the
// move budget is exhausted, configured by the deprecated flat Options.
func Run(g *graph.Graph, opt Options) (*Result, error) {
	return RunSpec(g, opt.Spec())
}

// RunSpec executes move dynamics on g (mutating it) until equilibrium or
// the move budget is exhausted. The whole trajectory shares one
// incremental pricing instance of the model: applied moves patch the live
// CSR snapshot in O(deg), and all probes and sweeps price against it.
func RunSpec(g *graph.Graph, spec Spec) (*Result, error) {
	return RunSpecCtx(context.Background(), g, spec)
}

// RunSpecCtx is RunSpec with cooperative cancellation: ctx is polled
// between scheduling steps (one agent's scan or one random probe). On
// expiry the partial Result — the moves applied so far; the graph is left
// mid-trajectory — is returned together with ctx.Err().
func RunSpecCtx(ctx context.Context, g *graph.Graph, spec Spec) (*Result, error) {
	if err := validate(g, &spec); err != nil {
		return nil, err
	}
	return drive(ctx, spec.model().New(g, spec.Workers), spec)
}

// NaiveRun drives the same policies through the model's oracle instance:
// every best-move and first-improvement scan re-freezes the graph, random
// probes are priced by apply-measure-revert on the map graph, and
// certification sweeps re-freeze per vertex. Run must reproduce its
// trajectories move-for-move for every model, policy, objective, seed, and
// worker count. Configured by the deprecated flat Options.
func NaiveRun(g *graph.Graph, opt Options) (*Result, error) {
	return NaiveRunSpec(g, opt.Spec())
}

// NaiveRunSpec is NaiveRun in the spec shape.
func NaiveRunSpec(g *graph.Graph, spec Spec) (*Result, error) {
	if err := validate(g, &spec); err != nil {
		return nil, err
	}
	return drive(context.Background(), spec.model().Naive(g, spec.Workers), spec)
}

// drive dispatches the validated run to the policy loop, on the
// shared-row path when the instance supports it (game.UsesSharedRows). The
// instance's pooled resources (the row-cache arenas) are released on every
// exit path; its cache counters are read into the Result first.
func drive(ctx context.Context, inst game.Instance, opt Spec) (*Result, error) {
	defer game.CloseInstance(inst)
	shared := game.UsesSharedRows(inst)
	res := &Result{Batched: BatchedFallback}
	if shared {
		res.Batched = BatchedActive
	}
	var err error
	switch opt.Policy {
	case BestResponse, FirstImprovement:
		err = runSweeping(ctx, inst, opt, shared, res)
	case RandomImproving:
		err = runRandom(ctx, inst, opt, shared, res)
	}
	if st, ok := game.InstanceRowCacheStats(inst); ok {
		res.RowsRecomputed, res.RowsInvalidated = st.Recomputed, st.Invalidated
	}
	if err != nil {
		res.Converged = false
		return res, err
	}
	return res, nil
}

// applyAndRecord applies m through the instance and appends a trace entry
// when enabled; the post-move social cost is measured on the instance.
func applyAndRecord(inst game.Instance, m core.Move, oldCost, newCost int64, opt Spec, res *Result) {
	inst.Apply(m)
	res.Moves++
	if opt.Trace || opt.OnMove != nil {
		entry := TraceEntry{
			Move: m, OldCost: oldCost, NewCost: newCost,
			SocialCost: inst.SocialCost(opt.Objective),
			MoveRank:   res.Moves,
		}
		if opt.Trace {
			res.Trace = append(res.Trace, entry)
		}
		if opt.OnMove != nil {
			opt.OnMove(entry)
		}
	}
}

// runSweeping drives the two deterministic round-robin policies through
// the shared convergence loop. On the shared-row path (the model scans
// through the session row cache, game.RowCachedScanner), each
// agent's scan prices candidate endpoints from the cached shared rows —
// observably identical moves, but an applied move only invalidates the
// rows it actually changes (exact under the multiplicity rule), so a
// sweep near equilibrium pays O(1) BFS per agent instead of Θ(n). ctx is
// polled before each agent's scan; once it expires every remaining step
// is skipped so the loop unwinds in O(n) cheap polls and the context
// error is returned.
func runSweeping(ctx context.Context, inst game.Instance, opt Spec, shared bool, res *Result) error {
	n := inst.Graph().N()
	rc, hasRC := inst.(game.RowCachedScanner)
	useRC := shared && hasRC
	var ctxErr error
	_, sweeps, converged := game.RoundRobin(n, opt.MaxMoves, func(v int) bool {
		if ctxErr != nil {
			return false
		}
		if ctxErr = ctx.Err(); ctxErr != nil {
			return false
		}
		var m core.Move
		var old, newCost int64
		var improves bool
		switch {
		case opt.Policy == BestResponse && useRC:
			m, old, newCost, improves = rc.BestMoveRowCached(v, opt.Objective)
		case opt.Policy == BestResponse:
			m, old, newCost, improves = inst.BestMove(v, opt.Objective)
		case useRC:
			m, old, newCost, improves = rc.FirstImprovingRowCached(v, opt.Objective)
		default:
			m, old, newCost, improves = inst.FirstImproving(v, opt.Objective)
		}
		if !improves {
			return false
		}
		applyAndRecord(inst, m, old, newCost, opt, res)
		return true
	})
	if ctxErr != nil {
		return ctxErr
	}
	res.Sweeps, res.Converged = sweeps, converged
	return nil
}

func runRandom(ctx context.Context, inst game.Instance, opt Spec, shared bool, res *Result) error {
	rng := rand.New(rand.NewSource(opt.Seed))
	n := inst.Graph().N()
	pb, hasPB := inst.(game.MoveBelowPricer)
	usePB := shared && hasPB
	patience := opt.PatienceFactor * inst.Graph().M()
	if patience < 50 {
		patience = 50
	}
	// Probes against an unchanged graph share the prober's current cost:
	// the cache is stamped with the applied-move generation and only
	// recomputed after a move actually lands, so the patience window
	// between moves pays one current-cost BFS per distinct sampled vertex
	// instead of one per probe.
	curCost := make([]int64, n)
	curGen := make([]uint64, n)
	gen := uint64(1)
	cost := func(v int) int64 {
		if curGen[v] != gen {
			curCost[v] = inst.Cost(v, opt.Objective)
			curGen[v] = gen
		}
		return curCost[v]
	}
	failStreak := 0
	for res.Moves < opt.MaxMoves {
		if err := ctx.Err(); err != nil {
			return err
		}
		if failStreak >= patience {
			// Certification sweep: exhaustively search for any improving
			// move; none ⇒ certified equilibrium of the model. The
			// shared-row pass returns the identical witness, so the
			// trajectory does not depend on the path.
			res.Sweeps++
			var m core.Move
			var old, newCost int64
			var found bool
			if shared {
				m, old, newCost, found = game.FindImprovementBatched(inst, opt.Objective)
			} else {
				m, old, newCost, found = inst.FindImprovement(opt.Objective)
			}
			if !found {
				res.Converged = true
				return nil
			}
			applyAndRecord(inst, m, old, newCost, opt, res)
			gen++
			failStreak = 0
			continue
		}
		m, ok := inst.Sample(rng)
		if !ok {
			failStreak++
			continue
		}
		cur := cost(m.V)
		var c int64
		var improves bool
		if usePB {
			// Thresholded probe through the cached shared rows: rejected
			// probes (the overwhelming majority near equilibrium) pay no
			// endpoint BFS; accepted ones return the exact PriceMove cost,
			// so the trajectory and its trace are bit-identical.
			c, improves = pb.PriceMoveBelow(m, opt.Objective, cur)
		} else {
			c = inst.PriceMove(m, opt.Objective)
			improves = c < cur
		}
		if improves {
			applyAndRecord(inst, m, cur, c, opt, res)
			gen++
			failStreak = 0
		} else {
			failStreak++
		}
	}
	return nil
}
