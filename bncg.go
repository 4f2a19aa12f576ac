// Package bncg is the public API of this reproduction of Alon, Demaine,
// Hajiaghayi and Leighton, "Basic Network Creation Games" (SPAA 2010).
//
// The package re-exports the library's core surface:
//
//   - graphs and metrics (NewGraph, FromEdges, Edge, Matrix, Metric),
//   - the basic game's equilibrium checkers (CheckSum, CheckMax,
//     CheckSwapStable) and structural predicates (IsInsertionStable,
//     IsDeletionCritical, IsKInsertionStable),
//   - swap pricing and best responses (BestSwap, EvaluateMove, PriceSwaps),
//   - swap dynamics (RunDynamics with the dynamics.Options policies),
//   - the paper's constructions (Star, DoubleStar, Fig3,
//     DiameterThreeSumEquilibrium, NewTorus, NewMultiTorus, …),
//   - labeled-tree machinery (RandomTree, AllTrees), and
//   - the experiment harness regenerating every figure and theorem table
//     (Experiments, RunExperiments).
//
// See README.md for a quickstart and DESIGN.md for the system inventory.
package bncg

import (
	"io"
	"math/rand"

	"repro/internal/constructions"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/game"
	"repro/internal/games"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/iso"
	"repro/internal/treegen"
)

// Re-exported fundamental types.
type (
	// Graph is a mutable simple undirected graph on vertices 0..n-1.
	Graph = graph.Graph
	// Edge is a normalized undirected edge (U < V).
	Edge = graph.Edge
	// Matrix is a dense all-pairs distance matrix.
	Matrix = graph.Matrix
	// Metric is a distance oracle (implemented by Matrix, Torus, MultiTorus).
	Metric = graph.Metric
	// Move is an edge swap: agent V replaces edge V–Drop by V–Add.
	Move = core.Move
	// Violation witnesses a failed equilibrium or stability predicate.
	Violation = core.Violation
	// Objective selects the usage cost (Sum or Max).
	Objective = core.Objective
	// Torus is the Theorem 12 diagonal torus with a closed-form metric.
	Torus = constructions.Torus
	// MultiTorus is the d-dimensional Section 4 generalization.
	MultiTorus = constructions.MultiTorus
	// CheckSpec selects one equilibrium check (model, objective, side
	// condition, workers) — the unified request shape behind Check, the
	// dynamics spec, and the serving layer. The engine picks the execution
	// path itself; the Batched field is accepted and ignored.
	CheckSpec = core.CheckSpec
	// Verdict is the outcome of a Check: stability bit, witness, and
	// whether the shared-row pass ran.
	Verdict = core.Verdict
	// DynamicsSpec configures RunDynamicsSpec; it embeds CheckSpec.
	DynamicsSpec = dynamics.Spec
	// DynamicsOptions is the deprecated flat configuration of RunDynamics.
	//
	// Deprecated: use DynamicsSpec.
	DynamicsOptions = dynamics.Options
	// DynamicsResult reports a dynamics run.
	DynamicsResult = dynamics.Result
	// BatchedState reports which path a dynamics run took (shared-row
	// active, or per-agent fallback).
	BatchedState = dynamics.BatchedState
	// ExperimentConfig scales the experiment harness.
	ExperimentConfig = experiments.Config
	// Experiment reproduces one paper artifact.
	Experiment = experiments.Experiment
)

// Objectives of the two game versions studied by the paper.
const (
	// Sum is the local-average-distance version: cost(v) = Σ_u d(v,u).
	Sum = core.Sum
	// Max is the local-diameter version: cost(v) = ecc(v).
	Max = core.Max
)

// Dynamics scheduling policies.
const (
	BestResponse     = dynamics.BestResponse
	FirstImprovement = dynamics.FirstImprovement
	RandomImproving  = dynamics.RandomImproving
)

// Path reports of DynamicsResult.Batched (BatchedOff is no longer
// reported).
const (
	BatchedOff      = dynamics.BatchedOff
	BatchedActive   = dynamics.BatchedActive
	BatchedFallback = dynamics.BatchedFallback
)

// The deviation-model layer (internal/game): a GameModel owns move
// enumeration and incremental pricing for one deviation rule, and plugs
// into RunDynamics via DynamicsOptions.Model.
type (
	// GameModel is one deviation rule (swap, greedy add/delete/swap,
	// communication interests, ...).
	GameModel = game.Model
	// GameInstance is a model bound to a live position.
	GameInstance = game.Instance
)

var (
	// SwapModel is the paper's basic game (the default model).
	SwapModel = game.Swap{}
	// GreedyModel builds the greedy add/delete/swap model with the given
	// per-incident-edge maintenance price.
	GreedyModel = func(edgeCost int64) GameModel { return game.Greedy{EdgeCost: edgeCost} }
	// InterestsModel builds the communication-interests model from
	// per-vertex interest sets.
	InterestsModel = func(sets [][]int32) GameModel { return game.NewInterests(sets) }
	// RandomInterestsModel draws each ordered interest pair with
	// probability p.
	RandomInterestsModel = game.RandomInterests
	// UniformInterestsModel is the full-interest degenerate case that
	// coincides with the basic swap game.
	UniformInterestsModel = game.UniformInterests
	// BudgetModel builds the bounded-budget model: every vertex maintains
	// at most k edges, so re-points must target a vertex with spare budget
	// (Ehsani et al.). With k ≥ n−1 it coincides with the basic swap game.
	BudgetModel = func(k int) GameModel { return game.Budget{K: k} }
	// TwoNeighborhoodModel is the 2-neighborhood maximization model
	// (de la Haye et al.): swaps that grow |N₂(v)|, priced from adjacency
	// alone; the Sum/Max objective is ignored.
	TwoNeighborhoodModel = game.TwoNeighborhood{}
)

// NewGraph returns an empty graph on n vertices.
func NewGraph(n int) *Graph { return graph.New(n) }

// FromEdges builds a graph on n vertices from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) { return graph.FromEdges(n, edges) }

// Check runs the equilibrium check selected by spec on g — the one entry
// point the historical CheckSum / CheckMax / CheckSwapStable × *Batched
// names collapsed into. Verdicts and witnesses are bit-identical to the
// deprecated wrappers for the corresponding specs.
func Check(g *Graph, spec CheckSpec) (Verdict, error) {
	return core.Check(g, spec)
}

// CheckSum reports whether g is in sum equilibrium (no swap strictly
// decreases any agent's total distance), with a witness on failure.
//
// Deprecated: use Check with CheckSpec{Objective: Sum}.
func CheckSum(g *Graph, workers int) (bool, *Violation, error) {
	return core.CheckSum(g, workers)
}

// CheckMax reports whether g is in max equilibrium (no swap decreases any
// agent's local diameter, and every deletion strictly increases it).
//
// Deprecated: use Check with CheckSpec{Objective: Max}.
func CheckMax(g *Graph, workers int) (bool, *Violation, error) {
	return core.CheckMax(g, workers)
}

// CheckSwapStable checks only the no-improving-swap condition (the
// equilibrium notion swap dynamics converge to).
//
// Deprecated: use Check with CheckSpec{Objective: obj, StableOnly: true}.
func CheckSwapStable(g *Graph, obj Objective, workers int) (bool, *Violation, error) {
	return core.CheckSwapStable(g, obj, workers)
}

// IsInsertionStable reports whether no single edge insertion decreases an
// endpoint's local diameter.
func IsInsertionStable(g *Graph, workers int) (bool, *Violation, error) {
	return core.IsInsertionStable(g, workers)
}

// IsDeletionCritical reports whether every edge deletion strictly increases
// both endpoints' local diameters.
func IsDeletionCritical(g *Graph, workers int) (bool, *Violation, error) {
	return core.IsDeletionCritical(g, workers)
}

// IsKInsertionStable reports whether no agent can decrease its local
// diameter by inserting up to k incident edges simultaneously.
func IsKInsertionStable(g *Graph, k, workers int) (bool, *core.KInsertionResult, error) {
	return core.IsKInsertionStable(g, k, workers)
}

// BestSwap returns agent v's cost-minimizing swap and whether it strictly
// improves.
func BestSwap(g *Graph, v int, obj Objective) (Move, int64, bool) {
	return core.BestSwap(g, v, obj)
}

// BestSwapParallel is BestSwap with the candidate scan sharded across the
// given number of workers (<= 0 means all cores); the result is identical
// for every worker count.
func BestSwapParallel(g *Graph, v int, obj Objective, workers int) (Move, int64, bool) {
	return core.BestSwapParallel(g, v, obj, workers)
}

// EvaluateMove prices one move by apply–measure–revert.
func EvaluateMove(g *Graph, m Move, obj Objective) int64 {
	return core.EvaluateMove(g, m, obj)
}

// Cost returns agent v's usage cost under obj (InfCost when disconnected).
func Cost(g *Graph, v int, obj Objective) int64 { return core.Cost(g, v, obj) }

// SocialCost returns the total usage cost over all agents.
func SocialCost(g *Graph, obj Objective) int64 { return core.SocialCost(g, obj) }

// RunDynamics runs swap dynamics on g (mutating it) until a certified swap
// equilibrium or the move budget is reached, configured by the deprecated
// flat options.
//
// Deprecated: use RunDynamicsSpec.
func RunDynamics(g *Graph, opt DynamicsOptions) (*DynamicsResult, error) {
	return dynamics.Run(g, opt)
}

// RunDynamicsSpec runs move dynamics on g (mutating it) until a certified
// equilibrium of the spec's model or the move budget is reached.
func RunDynamicsSpec(g *Graph, spec DynamicsSpec) (*DynamicsResult, error) {
	return dynamics.RunSpec(g, spec)
}

// Constructions from the paper.
var (
	// Path, Cycle, Star, Complete are the elementary families.
	Path     = constructions.Path
	Cycle    = constructions.Cycle
	Star     = constructions.Star
	Complete = constructions.Complete
	// Hypercube and Grid are standard structured families.
	Hypercube = constructions.Hypercube
	GridGraph = constructions.Grid
	// DoubleStar is the Figure 2 max-equilibrium tree.
	DoubleStar = constructions.DoubleStar
	// Fig3 is the literal Figure 3 graph (see its doc for the discovered
	// equilibrium gap).
	Fig3 = constructions.Fig3
	// Fig3Labels names Fig3's vertices as in the paper.
	Fig3Labels = constructions.Fig3Labels
	// DiameterThreeSumEquilibrium is the repaired Theorem 5 witness.
	DiameterThreeSumEquilibrium = constructions.DiameterThreeSumEquilibrium
	// NewTorus and NewMultiTorus are the Section 4 lower-bound families.
	NewTorus      = constructions.NewTorus
	NewMultiTorus = constructions.NewMultiTorus
)

// RandomTree returns a uniformly random labeled tree on n vertices.
func RandomTree(n int, rng *rand.Rand) *Graph { return treegen.RandomTree(n, rng) }

// AllTrees enumerates every labeled tree on n ≤ 10 vertices.
func AllTrees(n int, fn func(*Graph) bool) uint64 { return treegen.AllTrees(n, fn) }

// Graph serialization.
var (
	WriteEdgeList  = graphio.WriteEdgeList
	ReadEdgeList   = graphio.ReadEdgeList
	ToGraph6       = graphio.ToGraph6
	FromGraph6     = graphio.FromGraph6
	ToSparse6      = graphio.ToSparse6
	FromSparse6    = graphio.FromSparse6
	ToDOT          = graphio.ToDOT
	WriteInterests = graphio.WriteInterests
	ReadInterests  = graphio.ReadInterests
)

// Executable proofs: the improving moves constructed in the paper's
// arguments (see core.Theorem1Witness and core.Lemma2Witness).
var (
	Theorem1Witness = core.Theorem1Witness
	Lemma2Witness   = core.Lemma2Witness
)

// The α-parametrized comparison game (Fabrikant et al. [9]).
var (
	// AlphaSocialCost is α·m + Σ_v Σ_u d(v,u).
	AlphaSocialCost = games.SocialCost
	// PriceOfAnarchyProxy is SocialCost / min(star, clique).
	PriceOfAnarchyProxy = games.PriceOfAnarchyProxy
	// StableAlphaInterval is the α range on which a swap equilibrium is a
	// greedy equilibrium of the α-game.
	StableAlphaInterval = games.StableAlphaInterval
	// MinOwnership assigns each edge to its smaller endpoint.
	MinOwnership = games.MinOwnership
)

// Isomorphism utilities.
var (
	// IsoCertificate is an isomorphism-invariant string (exact for n ≤ 8).
	IsoCertificate = iso.Certificate
	// Isomorphic decides graph isomorphism exactly.
	Isomorphic = iso.Isomorphic
)

// Experiments returns the registered paper experiments (E1–E19).
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID looks up one experiment (e.g. "E5").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// RunExperiments executes every experiment, rendering tables to w.
func RunExperiments(w io.Writer, cfg ExperimentConfig) error {
	return experiments.RunAll(w, cfg)
}

// RunExperiment executes a single experiment, rendering its tables to w.
func RunExperiment(w io.Writer, e Experiment, cfg ExperimentConfig) error {
	return experiments.RunOne(w, e, cfg)
}
