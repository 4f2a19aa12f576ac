package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/constructions"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/treegen"
)

// Every input is built as a wire request (serve.CheckRequest or
// serve.DynamicsRequest) from the run's seed alone, whether it is then sent
// over HTTP or decoded and handed to core / dynamics directly.

// shapeSeed fixes the random trees the certify and dynamics batches and
// the serve repeat pool start from, so that runs with different seeds do
// the same work and their figures differ by measurement noise, not by
// which trees happened to be drawn. The run's seed orders the batch,
// relabels the graphs whose cost does not depend on vertex order
// (equilibria, which every check sweeps in full, and serve hits), and
// draws every graph the serve workload sends only once. Near-misses and
// dynamics starts keep their labels: where a scan stops and which path a
// trajectory takes both follow vertex order.
const shapeSeed = 1

// labeling renames vertex v to p[v].
type labeling []int

func (p labeling) graph(g *graph.Graph) *graph.Graph {
	h := graph.New(g.N())
	for _, e := range g.Edges() {
		h.AddEdge(p[e.U], p[e.V])
	}
	return h
}

func (p labeling) model(d serve.ModelDTO) serve.ModelDTO {
	if d.Interests == nil {
		return d
	}
	sets := make([][]int32, len(d.Interests))
	for v, set := range d.Interests {
		out := make([]int32, len(set))
		for i, u := range set {
			out[i] = int32(p[u])
		}
		slices.Sort(out)
		sets[p[v]] = out
	}
	d.Interests = sets
	return d
}

// bothBatched is the one place the benchmark sets the batched bit: each
// check input is issued once with the bit off and once with it on. If the
// switch is retired and batched becomes a no-op on the wire, the inputs do
// not change.
func bothBatched(req serve.CheckRequest) [2]serve.CheckRequest {
	off, on := req, req
	off.Batched, on.Batched = false, true
	return [2]serve.CheckRequest{off, on}
}

// bothBatchedDynamics is bothBatched for dynamics requests.
func bothBatchedDynamics(req serve.DynamicsRequest) [2]serve.DynamicsRequest {
	off, on := req, req
	off.Batched, on.Batched = false, true
	return [2]serve.DynamicsRequest{off, on}
}

// hubCount is how many hub vertices every agent of the interests model
// cares about. Interests over a few shared hubs converge under every
// policy; ring-successor interests cycle under sum dynamics.
const hubCount = 8

// modelNames are the five deviation models, in table order.
var modelNames = []string{"swap", "greedy", "interests", "budget", "2nb"}

var objectives = []string{"sum", "max"}

// modelDTO builds the wire model for an n-vertex graph. Greedy's edge cost
// is n and the budget is 3, settings under which every policy converges
// from trees and paths; interests draw hubCount hubs from rng.
func modelDTO(name string, n int, rng *rand.Rand) serve.ModelDTO {
	switch name {
	case "greedy":
		return serve.ModelDTO{Name: "greedy", EdgeCost: int64(n)}
	case "budget":
		return serve.ModelDTO{Name: "budget", Budget: 3}
	case "2nb":
		return serve.ModelDTO{Name: "2nb"}
	case "interests":
		hubs := rng.Perm(n)[:min(hubCount, n)]
		sets := make([][]int32, n)
		for v := range sets {
			for _, h := range hubs {
				if h != v {
					sets[v] = append(sets[v], int32(h))
				}
			}
		}
		return serve.ModelDTO{Name: "interests", Interests: sets}
	default:
		return serve.ModelDTO{}
	}
}

func modelName(d serve.ModelDTO) string {
	if d.Name == "" {
		return "swap"
	}
	return d.Name
}

func objective(s string) core.Objective {
	if s == "max" {
		return core.Max
	}
	return core.Sum
}

// decodeCheck turns a wire check request into the graph and spec that
// core.CheckCtx takes, the way the server resolves it.
func decodeCheck(req serve.CheckRequest, workers int) (*graph.Graph, core.CheckSpec, error) {
	g, err := req.Graph.Decode()
	if err != nil {
		return nil, core.CheckSpec{}, fmt.Errorf("decode graph: %w", err)
	}
	model, err := req.Model.Build(g.N())
	if err != nil {
		return nil, core.CheckSpec{}, fmt.Errorf("build model: %w", err)
	}
	return g, core.CheckSpec{
		Model: model, Objective: objective(req.Objective),
		StableOnly: req.StableOnly, Batched: req.Batched, Workers: workers,
	}, nil
}

var policies = map[string]dynamics.Policy{
	"best": dynamics.BestResponse, "first": dynamics.FirstImprovement, "random": dynamics.RandomImproving,
}

// decodeDynamics turns a wire dynamics request into its start graph and spec.
func decodeDynamics(req serve.DynamicsRequest, workers int) (*graph.Graph, dynamics.Spec, error) {
	g, err := req.Graph.Decode()
	if err != nil {
		return nil, dynamics.Spec{}, fmt.Errorf("decode graph: %w", err)
	}
	model, err := req.Model.Build(g.N())
	if err != nil {
		return nil, dynamics.Spec{}, fmt.Errorf("build model: %w", err)
	}
	pol, ok := policies[req.Policy]
	if !ok {
		return nil, dynamics.Spec{}, fmt.Errorf("unknown policy %q", req.Policy)
	}
	return g, dynamics.Spec{
		CheckSpec: core.CheckSpec{Model: model, Objective: objective(req.Objective), Batched: req.Batched, Workers: workers},
		Policy:    pol, Seed: req.Seed, MaxMoves: req.MaxMoves,
	}, nil
}

func encode(g *graph.Graph) (serve.GraphDTO, error) {
	return serve.EncodeGraph(g, serve.FormatSparse6)
}

// torus is the rows×cols grid with wraparound.
func torus(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(r*cols+c, ((r+1)%rows)*cols+c)
			g.AddEdge(r*cols+c, r*cols+(c+1)%cols)
		}
	}
	return g
}

// converge runs best-response dynamics on g (in place) to an equilibrium
// of the request's model and objective.
func converge(g *graph.Graph, model serve.ModelDTO, obj string, workers int) error {
	m, err := model.Build(g.N())
	if err != nil {
		return err
	}
	res, err := dynamics.RunSpecCtx(context.Background(), g, dynamics.Spec{
		CheckSpec: core.CheckSpec{Model: m, Objective: objective(obj), Batched: true, Workers: workers},
		MaxMoves:  50_000,
	})
	if err != nil {
		return err
	}
	if !res.Converged {
		return fmt.Errorf("%s/%s dynamics did not converge from n=%d", modelName(model), obj, g.N())
	}
	return nil
}

// repoint returns a copy of g with one edge re-pointed: some u drops its
// edge to w and links to x instead, without splitting a component.
// (Interests dynamics may leave agents nobody cares about in a component
// of their own.)
func repoint(g *graph.Graph, rng *rand.Rand) (*graph.Graph, error) {
	edges := g.Edges()
	n := g.N()
	comps := len(g.ConnectedComponents())
	for try := 0; try < 1000; try++ {
		e := edges[rng.Intn(len(edges))]
		u, w := e.U, e.V
		if rng.Intn(2) == 0 {
			u, w = w, u
		}
		x := rng.Intn(n)
		if x == u || x == w || g.HasEdge(u, x) {
			continue
		}
		h := g.Clone()
		h.RemoveEdge(u, w)
		h.AddEdge(u, x)
		if len(h.ConnectedComponents()) <= comps {
			return h, nil
		}
	}
	return nil, fmt.Errorf("no connected re-pointing found for n=%d m=%d", n, g.M())
}

// certCase is one graph of the certify batch, with the batched bit off.
type certCase struct {
	ID  string
	Req serve.CheckRequest
}

// certifySize sets the vertex counts of the certify batch.
type certifySize struct {
	trees []int // random trees, run to equilibrium
	star  int   // star on this many vertices
	torus int   // torus×torus wraparound grid
}

var fullCertify = certifySize{trees: []int{64, 128, 192}, star: 128, torus: 10}

// certifyCases builds the certify batch: for every model × objective,
// equilibria reached by best-response dynamics from random trees of each
// size, a star and a torus, and each of those with one edge re-pointed
// (a near-miss).
func certifyCases(seed int64, workers int, size certifySize) ([]certCase, error) {
	shapes, labels := rand.New(rand.NewSource(shapeSeed)), rand.New(rand.NewSource(seed))
	var out []certCase
	for _, name := range modelNames {
		for _, obj := range objectives {
			type start struct {
				label string
				g     *graph.Graph
				dyn   bool // converge before use
			}
			var starts []start
			for _, n := range size.trees {
				starts = append(starts, start{fmt.Sprintf("eq%d", n), treegen.RandomTree(n, shapes), true})
			}
			starts = append(starts,
				start{fmt.Sprintf("star%d", size.star), constructions.Star(size.star), false},
				start{fmt.Sprintf("torus%d", size.torus*size.torus), torus(size.torus, size.torus), false})
			for _, s := range starts {
				model := modelDTO(name, s.g.N(), shapes)
				if s.dyn {
					if err := converge(s.g, model, obj, workers); err != nil {
						return nil, err
					}
				}
				near, err := repoint(s.g, shapes)
				if err != nil {
					return nil, err
				}
				p := labeling(labels.Perm(s.g.N()))
				for _, v := range []struct {
					id    string
					g     *graph.Graph
					model serve.ModelDTO
				}{{s.label, p.graph(s.g), p.model(model)}, {"nm-" + s.label, near, model}} {
					dto, err := encode(v.g)
					if err != nil {
						return nil, err
					}
					out = append(out, certCase{
						ID:  fmt.Sprintf("%s/%s/%s", name, obj, v.id),
						Req: serve.CheckRequest{Graph: dto, Model: v.model, Objective: obj},
					})
				}
			}
		}
	}
	return out, nil
}

// dynCase is one trajectory of the dynamics batch, with the batched bit off.
type dynCase struct {
	ID  string
	Req serve.DynamicsRequest
}

// dynamicsModels are the models the dynamics workload drives; 2nb has no
// row-cached or batched path, so it would only repeat the per-agent one.
var dynamicsModels = []string{"swap", "greedy", "interests", "budget"}

// dynamicsCases builds the dynamics batch: every model × policy × objective
// from a seeded random tree or a path, the start shape and size rotating
// through tree, path, tree and path on base and then 2×base vertices.
func dynamicsCases(base int) ([]dynCase, error) {
	shapes := rand.New(rand.NewSource(shapeSeed))
	var out []dynCase
	i := 0
	for _, name := range dynamicsModels {
		for _, pol := range []string{"best", "first", "random"} {
			for _, obj := range objectives {
				n := base << (i / 2 % 2)
				g, shape := treegen.RandomTree(n, shapes), "tree"
				if i%2 == 1 {
					g, shape = constructions.Path(n), "path"
				}
				i++
				dto, err := encode(g)
				if err != nil {
					return nil, err
				}
				out = append(out, dynCase{
					ID: fmt.Sprintf("%s/%s/%s/%s%d", name, pol, obj, shape, n),
					Req: serve.DynamicsRequest{
						Graph: dto, Model: modelDTO(name, n, shapes), Objective: obj,
						Policy: pol, Seed: shapes.Int63(), MaxMoves: 50_000,
					},
				})
			}
		}
	}
	return out, nil
}
