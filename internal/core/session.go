package core

import (
	"repro/internal/game"
	"repro/internal/graph"
)

// Session is the basic game's incremental pricing session. It is a thin
// facade over game.SwapSession — the Swap model's fast instance in the
// deviation-model layer — kept so the historical core surface (and its
// method names: BestSwap, CheckSwapStable) stays stable: a live CSR
// snapshot is patched in O(deg) per applied move instead of re-frozen in
// O(n+m), and every probe, sweep, and certification pass prices against
// it. See game.SwapSession for the lifecycle and determinism contract.
//
// A Session is single-writer: Apply and undo must not race with pricing
// calls. The pricing calls themselves shard internally across the
// session's workers.
type Session struct {
	inst *game.SwapSession
}

// NewSession starts a session on g with the given pricing parallelism
// (<= 0 means all cores). The engine (and its pooled BFS scratch) is
// shared with other sessions and one-shot calls at the same worker count.
func NewSession(g *graph.Graph, workers int) *Session {
	return &Session{inst: game.NewSwapSession(g, workers)}
}

// Instance returns the underlying Swap model instance (the game.Instance
// the model-generic engines drive).
func (s *Session) Instance() *game.SwapSession { return s.inst }

// Graph returns the authoritative mutable graph. Mutating it directly
// desynchronizes the session; route moves through Apply.
func (s *Session) Graph() *graph.Graph { return s.inst.Graph() }

// Workers returns the session's pricing parallelism.
func (s *Session) Workers() int { return s.inst.Workers() }

// View returns the live CSR snapshot for read-only use (e.g. sampling
// neighbors without allocating); mutate only through Apply.
func (s *Session) View() *graph.Dyn { return s.inst.View() }

// Apply performs m on both the graph and the live snapshot, returning a
// function that undoes the move on both (undos must be invoked in LIFO
// order). Invalid moves (Drop not a neighbor) panic, like ApplyMove.
func (s *Session) Apply(m Move) (undo func()) { return s.inst.Apply(m) }

// Cost returns agent v's usage cost from one BFS row over the live
// snapshot. It equals Cost(g, v, obj) on the synced graph.
func (s *Session) Cost(v int, obj Objective) int64 { return s.inst.Cost(v, obj) }

// SocialCost returns the sum of all agents' usage costs (InfCost when the
// graph is disconnected), computed over the live snapshot. It equals
// SocialCost(g, obj) on the synced graph.
func (s *Session) SocialCost(obj Objective) int64 { return s.inst.SocialCost(obj) }

// BestSwap returns agent v's cost-minimizing swap over the live snapshot,
// with the same deterministic (cost, drop, add) tie-break as
// BestSwapParallel, plus v's current cost (read from the scan for free).
// The candidate-endpoint scan is sharded across the session's workers.
func (s *Session) BestSwap(v int, obj Objective) (best Move, oldCost, newCost int64, improves bool) {
	return s.inst.BestMove(v, obj)
}

// FirstImproving returns agent v's first improving swap in the engine's
// add-major enumeration order — the first-improvement policy's move —
// sharded across the session's workers with a deterministic merge, so the
// result equals the sequential early-exit scan for any worker count.
func (s *Session) FirstImproving(v int, obj Objective) (m Move, oldCost, newCost int64, found bool) {
	return s.inst.FirstImproving(v, obj)
}

// PriceSwaps streams every candidate swap of agent v over the live
// snapshot in the same add-major order as the package-level PriceSwaps,
// without re-freezing.
func (s *Session) PriceSwaps(v int, obj Objective, fn func(m Move, newCost int64) bool) {
	s.inst.PriceSwaps(v, obj, fn)
}

// PriceMove prices a single candidate move from two BFS rows over the live
// snapshot — d_{G−vw}(v,·) patched with d_{G−v}(w',·) — without mutating
// anything. It equals EvaluateMove(g, m, obj) on the synced graph and is
// the random-improving policy's probe path. Requires Add != V; Drop need
// not be a neighbor (a non-edge drop degenerates to pricing the insertion
// alone, matching EvaluateMove). Rows are memoized across probes within
// one mutation generation (see game.SwapSession).
func (s *Session) PriceMove(m Move, obj Objective) int64 { return s.inst.PriceMove(m, obj) }

// FindImprovement scans agents in ascending order for the first improving
// swap — the certification sweep of the random-improving policy. Within
// each agent the scan is sharded across the session's workers with the
// deterministic first-improvement merge, so the returned move is the same
// for any worker count. found is false exactly when the graph is in swap
// equilibrium under obj.
func (s *Session) FindImprovement(obj Objective) (m Move, oldCost, newCost int64, found bool) {
	return s.inst.FindImprovement(obj)
}

// CheckSwapStable reports whether no single swap strictly improves any
// agent, certifying against the live snapshot without re-freezing; each
// agent's scan is sharded across the session's workers. The verdict agrees
// with the one-shot CheckSwapStable / CheckSwapEquilibrium on the synced
// graph.
func (s *Session) CheckSwapStable(obj Objective) (bool, *Violation, error) {
	return s.inst.CheckStable(obj)
}
