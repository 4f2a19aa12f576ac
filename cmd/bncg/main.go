// Command bncg is the CLI for the basic network creation game library:
//
//	bncg construct  -family torus -k 5 -format edgelist|graph6|dot [-o file]
//	bncg check      -in graph.txt [-format edgelist|graph6] [-obj sum|max]
//	bncg dynamics   -n 40 -init tree|chords [-obj sum|max] [-policy best|first|random]
//	                [-model swap|greedy|interests|budget|2nb] [-edgecost 2]
//	                [-interests file] [-budget 3] [-seed 1]
//	bncg experiments [-id E5] [-quick] [-seed 1]
//	bncg serve      [-addr :8347] [-pool 16] [-cache 512] [-timeout 30s]
//	bncg load       [-url http://host:8347] [-k 8] [-rounds 2] [-atlas dir] [-json]
//	bncg atlas      hunt|verify|stats [-dir testdata/atlas] [-seed 1]
//
// `construct` emits one of the paper's graphs, `check` runs every
// equilibrium and stability predicate on an input graph, `dynamics` runs
// move dynamics from a random start under the selected deviation model
// (the basic game's swap, greedy add/delete/swap, communication
// interests, bounded edge budgets, or 2-neighborhood maximization) and
// certifies the result, and `experiments` regenerates the paper's tables
// (see EXPERIMENTS.md). `serve` exposes check / best-response / dynamics
// as a long-lived HTTP+JSON service on a warm session pool with a
// certified-verdict LRU; `check` and `dynamics` are thin clients of the
// same code path (in process by default, remote with -server). `load`
// replays a mixed scenario corpus against a server from k concurrent
// clients and verifies every verdict bit-for-bit against the one-shot
// path.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	bncg "repro"
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "construct":
		err = cmdConstruct(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "dynamics":
		err = cmdDynamics(os.Args[2:])
	case "experiments":
		err = cmdExperiments(os.Args[2:])
	case "proofs":
		err = cmdProofs(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	case "atlas":
		err = cmdAtlas(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "bncg: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bncg:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: bncg <command> [flags]

commands:
  construct    build one of the paper's graphs (star, doublestar, fig3,
               repaired, torus, multitorus, cycle, path, complete, hypercube)
  check        run equilibrium + stability predicates on a graph file
  dynamics     run move dynamics (swap|greedy|interests|budget|2nb) from a
               random start and certify the result
  experiments  regenerate the paper's tables (E1..E19)
  proofs       construct the Theorem 1 / Lemma 2 improving moves for a graph
  serve        long-lived HTTP equilibrium service (check / best-response /
               dynamics on a warm session pool with a certified-verdict LRU)
  load         replay the mixed scenario corpus against a server from k
               concurrent clients, verifying every verdict bit-for-bit
  atlas        equilibrium atlas: hunt (bounded deterministic search for
               certified equilibria), verify (re-certify the checked-in
               corpus bit-for-bit), stats (per-model structure tables)

run 'bncg <command> -h' for flags`)
}

func buildFamily(family string, n, k, d, left, right int) (*graph.Graph, error) {
	switch family {
	case "star":
		return bncg.Star(n), nil
	case "path":
		return bncg.Path(n), nil
	case "cycle":
		return bncg.Cycle(n), nil
	case "complete":
		return bncg.Complete(n), nil
	case "hypercube":
		return bncg.Hypercube(d), nil
	case "doublestar":
		return bncg.DoubleStar(left, right), nil
	case "fig3":
		return bncg.Fig3(), nil
	case "repaired":
		if k < 4 {
			k = 4
		}
		return bncg.DiameterThreeSumEquilibrium(k), nil
	case "torus":
		return bncg.NewTorus(k).Graph(), nil
	case "multitorus":
		return bncg.NewMultiTorus(d, k).Graph(), nil
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}

func cmdConstruct(args []string) error {
	fs := flag.NewFlagSet("construct", flag.ExitOnError)
	family := fs.String("family", "torus", "graph family")
	n := fs.Int("n", 10, "vertex count (families parameterized by n)")
	k := fs.Int("k", 4, "torus half-period / repaired branch count")
	d := fs.Int("d", 3, "dimension (hypercube, multitorus)")
	left := fs.Int("left", 2, "double star left leaves")
	right := fs.Int("right", 2, "double star right leaves")
	format := fs.String("format", "edgelist", "edgelist|graph6|dot")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := buildFamily(*family, *n, *k, *d, *left, *right)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "edgelist":
		return bncg.WriteEdgeList(w, g)
	case "graph6":
		s, err := bncg.ToGraph6(g)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintln(w, s)
		return err
	case "dot":
		var labels map[int]string
		if *family == "fig3" {
			labels = bncg.Fig3Labels()
		}
		_, err := fmt.Fprint(w, bncg.ToDOT(g, *family, labels))
		return err
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

func readGraph(path, format string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if format == "graph6" {
		buf := make([]byte, 1<<20)
		n, _ := f.Read(buf)
		return bncg.FromGraph6(strings.TrimSpace(string(buf[:n])))
	}
	return bncg.ReadEdgeList(f)
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	in := fs.String("in", "", "input graph file (required)")
	format := fs.String("format", "edgelist", "edgelist|graph6|sparse6")
	workers := fs.Int("workers", 0, "parallel workers (0 = all cores)")
	fs.Bool("batched", false, "deprecated, accepted and ignored: checks take the shared-row path by themselves whenever the model has one and the graph's rows fit (5n² bytes ≤ 64 MiB, n ≤ 3663), else the per-agent path; the verdict is identical either way")
	server := fs.String("server", "", "base URL of a running `bncg serve` to check against; empty runs the identical code path in process")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("check: -in is required")
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	dto := serve.GraphDTO{Format: *format, Data: string(data)}
	g, err := dto.Decode()
	if err != nil {
		return err
	}
	diam, connected := g.Diameter()
	fmt.Printf("graph: n=%d m=%d connected=%v", g.N(), g.M(), connected)
	if connected {
		girth := "acyclic"
		if gv, ok := g.Girth(); ok {
			girth = fmt.Sprint(gv)
		}
		fmt.Printf(" diameter=%d girth=%s", diam, girth)
	}
	fmt.Println()
	if !connected {
		return fmt.Errorf("predicates need a connected graph")
	}

	report := func(name string, ok bool, viol *core.Violation, err error) {
		if err != nil {
			fmt.Printf("%-22s error: %v\n", name, err)
			return
		}
		if ok {
			fmt.Printf("%-22s yes\n", name)
		} else {
			fmt.Printf("%-22s no   (%v)\n", name, viol)
		}
	}
	// The equilibrium checks ride the service DTOs — in process or against
	// a remote server, the same request shape and engine path either way.
	api := newAPI(*server, *workers)
	equilibrium := func(objective string) (bool, *core.Violation, error) {
		resp, err := api.Check(context.Background(), serve.CheckRequest{
			Graph: dto, Objective: objective, Workers: *workers,
		})
		if err != nil {
			return false, nil, err
		}
		return resp.Stable, resp.Violation.Violation(), nil
	}
	ok, viol, err := equilibrium("sum")
	report("sum equilibrium", ok, viol, err)
	ok, viol, err = equilibrium("max")
	report("max equilibrium", ok, viol, err)
	// Insertion stability and deletion criticality are local predicates
	// outside the service surface.
	ok, viol, err = core.IsInsertionStable(g, *workers)
	report("insertion-stable", ok, viol, err)
	ok, viol, err = core.IsDeletionCritical(g, *workers)
	report("deletion-critical", ok, viol, err)
	spread, err := core.LocalDiameterSpread(g)
	if err == nil {
		fmt.Printf("%-22s %d\n", "local diam spread", spread)
	}
	return nil
}

func cmdDynamics(args []string) error {
	fs := flag.NewFlagSet("dynamics", flag.ExitOnError)
	n := fs.Int("n", 40, "vertex count")
	initKind := fs.String("init", "tree", "tree|chords (tree plus n/4 chords)")
	obj := fs.String("obj", "sum", "sum|max")
	policy := fs.String("policy", "best", "best|first|random")
	model := fs.String("model", "swap", "deviation model: swap|greedy|interests|budget|2nb")
	edgeCost := fs.Int64("edgecost", game.DefaultEdgeCost, "greedy model: per-incident-edge maintenance price")
	interests := fs.String("interests", "", "interests model: interest-set file (graphio format); empty = random sets (p=0.3) from the seed")
	budget := fs.Int("budget", game.DefaultBudget, "budget model: uniform per-vertex edge budget k (re-points must target a vertex with deg < k)")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "pricing workers for every policy, including the random policy's certification sweeps (0 = all cores; trajectories are identical for any count)")
	fs.Bool("batched", false, "deprecated, accepted and ignored: runs take the shared-row path by themselves (rows filled on first read and kept in the session's row cache across moves) whenever the model has one and the graph's rows fit (5n² bytes ≤ 64 MiB, n ≤ 3663); 2nb and larger graphs run per agent, reported as batched=fallback; trajectories are identical either way")
	trace := fs.Bool("trace", false, "print every applied move")
	stream := fs.Bool("stream", false, "run over the streaming endpoint, printing moves as they are applied (NDJSON /v1/dynamics/stream when -server is set)")
	server := fs.String("server", "", "base URL of a running `bncg serve` to run on; empty runs the identical code path in process")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	g := bncg.RandomTree(*n, rng)
	if *initKind == "chords" {
		for i := 0; i < *n/4; i++ {
			u, v := rng.Intn(*n), rng.Intn(*n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
	}
	objective := "sum"
	if *obj == "max" {
		objective = "max"
	}
	var pol dynamics.Policy
	switch *policy {
	case "best":
		pol = dynamics.BestResponse
	case "first":
		pol = dynamics.FirstImprovement
	case "random":
		pol = dynamics.RandomImproving
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}
	mdto, err := modelDTOFromFlags(*model, *n, *edgeCost, *interests, *budget, *seed)
	if err != nil {
		return err
	}
	mdl, err := mdto.Build(*n)
	if err != nil {
		return err
	}
	dto, err := serve.EncodeGraph(g, serve.FormatSparse6)
	if err != nil {
		return err
	}
	before, _ := g.Diameter()
	mBefore := g.M()
	// The run itself is a service request — in process or remote, the same
	// DTOs and the same engine path as `bncg serve`. Certify asks the
	// server for a fresh one-shot stability check of the final graph.
	api := newAPI(*server, *workers)
	req := serve.DynamicsRequest{
		Graph: dto, Model: mdto, Objective: objective, Policy: *policy,
		Seed: *seed, Workers: *workers,
		Trace: *trace, Certify: true,
	}
	var res *serve.DynamicsResponse
	if *stream {
		// The streaming path prints moves as the run applies them, so a
		// long convergence shows progress instead of a silent wait.
		res, err = api.DynamicsStream(context.Background(), req, func(ev serve.StreamEvent) error {
			switch ev.Event {
			case serve.StreamMove:
				fmt.Printf("move %3d: %v cost %d→%d\n",
					ev.Move.MoveRank, ev.Move.Move.Move(), ev.Move.OldCost, ev.Move.NewCost)
			case serve.StreamHeartbeat:
				fmt.Fprintf(os.Stderr, "… %d moves, %.1fs\n", ev.Moves, float64(ev.ElapsedMS)/1000)
			}
			return nil
		})
	} else {
		res, err = api.Dynamics(context.Background(), req)
	}
	if err != nil {
		return err
	}
	if *trace && !*stream {
		for _, e := range res.Trace {
			fmt.Printf("move %3d: %v cost %d→%d\n", e.MoveRank, e.Move.Move(), e.OldCost, e.NewCost)
		}
	}
	final, err := res.Final.Decode()
	if err != nil {
		return err
	}
	after, _ := final.Diameter()
	fmt.Printf("n=%d init=%s obj=%s policy=%s model=%s: converged=%v moves=%d sweeps=%d diameter %d→%d m %d→%d",
		*n, *initKind, objective, pol, mdl.Name(), res.Converged, res.Moves, res.Sweeps, before, after, mBefore, final.M())
	// Which path ran: active (shared rows) or fallback (per agent).
	fmt.Printf(" batched=%s", res.Batched)
	if res.RowsRecomputed > 0 || res.RowsInvalidated > 0 {
		// The row cache's effectiveness over the run: rows computed vs
		// rows invalidated by applied moves. Above one worker both depend
		// on scheduling, so they go to stderr and stdout stays identical
		// for every worker count.
		fmt.Fprintf(os.Stderr, "rows recomputed=%d invalidated=%d\n", res.RowsRecomputed, res.RowsInvalidated)
	}
	fmt.Println()
	if res.Converged && res.Certified != nil {
		fmt.Printf("certified %s-stable: %v", mdl.Name(), res.Certified.Stable)
		if res.Certified.Violation != nil {
			fmt.Printf(" (%v)", res.Certified.Violation.Violation())
		}
		fmt.Println()
	}
	return nil
}

func cmdProofs(args []string) error {
	fs := flag.NewFlagSet("proofs", flag.ExitOnError)
	in := fs.String("in", "", "input graph file (required)")
	format := fs.String("format", "edgelist", "edgelist|graph6")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("proofs: -in is required")
	}
	g, err := readGraph(*in, *format)
	if err != nil {
		return err
	}
	if m, err := core.Theorem1Witness(g); err != nil {
		fmt.Printf("Theorem 1 witness: not applicable (%v)\n", err)
	} else {
		before := core.SumCost(g, m.V)
		after := core.EvaluateMove(g, m, core.Sum)
		fmt.Printf("Theorem 1 witness: %v lowers agent %d's distance sum %d→%d\n",
			m, m.V, before, after)
	}
	if m, err := core.Lemma2Witness(g); err != nil {
		fmt.Printf("Lemma 2 witness:   not applicable (%v)\n", err)
	} else {
		before := core.MaxCost(g, m.V)
		after := core.EvaluateMove(g, m, core.Max)
		fmt.Printf("Lemma 2 witness:   %v lowers agent %d's eccentricity %d→%d\n",
			m, m.V, before, after)
	}
	return nil
}

func cmdExperiments(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	id := fs.String("id", "", "single experiment id (e.g. E5); empty = all")
	quick := fs.Bool("quick", false, "reduced instance sizes")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Workers: *workers, Quick: *quick, Seed: *seed}
	if *id == "" {
		return bncg.RunExperiments(os.Stdout, cfg)
	}
	e, ok := experiments.ByID(*id)
	if !ok {
		return fmt.Errorf("unknown experiment %q", *id)
	}
	return bncg.RunExperiment(os.Stdout, e, cfg)
}
