package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/pricing"
	"repro/internal/serve"
)

// trajectory is one dynamics request resolved for dynamics.RunSpecCtx.
type trajectory struct {
	caseIdx int
	req     serve.DynamicsRequest
	start   *graph.Graph
	spec    dynamics.Spec
}

// setupDynamics resolves every wire request and warms the shared pricing
// engine, setupReps times.
func setupDynamics(cases []dynCase, workers int) ([]trajectory, float64, error) {
	var items []trajectory
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		pricing.Shared(workers)
		items = items[:0]
		for ci, c := range cases {
			for _, r := range bothBatchedDynamics(c.Req) {
				g, spec, err := decodeDynamics(r, workers)
				if err != nil {
					return nil, 0, fmt.Errorf("%s: %w", c.ID, err)
				}
				items = append(items, trajectory{caseIdx: ci, req: r, start: g, spec: spec})
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return items, median(times), nil
}

// trajectoryDigest is what a run must reproduce: where it ended and how
// it got there, in move and sweep counts.
func trajectoryDigest(res *dynamics.Result, final *graph.Graph) (string, error) {
	s6, err := graphio.ToSparse6(final)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("converged=%t moves=%d sweeps=%d final=%s", res.Converged, res.Moves, res.Sweeps, s6), nil
}

func runDynamics(cfg config, tr *tracer) (*outcome, error) {
	return dynamicsWorkload(cfg, tr, 64)
}

// dynamicsWorkload runs every trajectory of the batch to convergence, one
// at a time, in whole passes until the time is up, in an order drawn from
// the seed; base is the smallest start size (the batch also starts from
// 2×base).
func dynamicsWorkload(cfg config, tr *tracer, base int) (*outcome, error) {
	ctx := context.Background()
	cases, err := dynamicsCases(base)
	if err != nil {
		return nil, err
	}
	items, setupS, err := setupDynamics(cases, cfg.workers)
	if err != nil {
		return nil, err
	}
	out := &outcome{setupS: setupS, values: map[string]float64{}, props: map[string]any{}}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(items))
	digests := make([]string, len(items))
	var lat latencies
	moves, converged := 0, 0
	var rowsRecomputed uint64
	times, overhead := passes(cfg, tr, order, func(i int, t *tracer) {
		it := &items[i]
		g := it.start.Clone()
		end := t.begin("dynamics.RunSpecCtx")
		t0 := time.Now()
		res, err := dynamics.RunSpecCtx(ctx, g, it.spec)
		d := time.Since(t0)
		end()
		out.attempted++
		lat = append(lat, ms(d))
		if err != nil {
			out.fail("%s batched=%t: %v", cases[it.caseIdx].ID, it.req.Batched, err)
			return
		}
		moves += res.Moves
		rowsRecomputed += res.RowsRecomputed
		if res.Converged {
			converged++
		}
		dg, err := trajectoryDigest(res, g)
		if err != nil {
			out.fail("%s: %v", cases[it.caseIdx].ID, err)
			return
		}
		if digests[i] != "" && digests[i] != dg {
			out.fail("%s batched=%t: trajectory changed between passes", cases[it.caseIdx].ID, it.req.Batched)
		}
		digests[i] = dg
	})

	// Gate: the batched bit must not change any trajectory.
	byCase := make([][]int, len(cases))
	for i, it := range items {
		byCase[it.caseIdx] = append(byCase[it.caseIdx], i)
	}
	for ci, idx := range byCase {
		if digests[idx[0]] != digests[idx[1]] {
			out.fail("%s: batched=false ends %q, batched=true ends %q", cases[ci].ID, digests[idx[0]], digests[idx[1]])
		}
	}

	// Every pass applies the same moves, so the median pass sets the rate.
	out.values["throughput_per_s"] = float64(moves) / float64(len(times)) / medianPass(times)
	out.values["p50_ms"] = lat.p50()
	tail, pct := lat.tail()
	out.values["tail_ms"] = tail

	ns := map[int]int{}
	for _, it := range items {
		ns[it.start.N()]++
	}
	out.props["n_mix"] = ns
	out.props["cases"] = len(cases)
	out.props["equilibrium_share"] = float64(converged) / float64(max(len(lat), 1))
	out.props["hit_share"] = 0.0
	out.props["exact_iso_share"] = 0.0
	out.props["batched_share"] = 0.5
	out.props["passes"] = len(times)
	out.props["samples"] = len(lat)
	out.props["tail_pct"] = pct
	out.props["moves"] = moves
	out.props["rows_recomputed"] = rowsRecomputed

	if tr != nil {
		out.values["trace.overhead_ratio"] = overhead
		// Layer probes: the final graphs of a spread of cases checked under
		// every model × objective (connected ones only: the swap checks
		// need it, and interests dynamics may split the graph), and a
		// spread of the trajectories themselves.
		var checks []serve.CheckRequest
		rng := rand.New(rand.NewSource(cfg.seed))
		for k, ci := range spread(len(cases), 8) {
			if len(checks) >= 40 {
				break
			}
			g, spec, err := decodeDynamics(cases[ci].Req, cfg.workers)
			if err != nil {
				return nil, err
			}
			if _, err := dynamics.RunSpecCtx(ctx, g, spec); err != nil {
				return nil, err
			}
			if !g.IsConnected() {
				continue
			}
			dto, err := encode(g)
			if err != nil {
				return nil, err
			}
			for _, name := range modelNames {
				for _, obj := range objectives {
					checks = append(checks, bothBatched(serve.CheckRequest{Graph: dto, Model: modelDTO(name, g.N(), rng), Objective: obj})[k%2])
				}
			}
		}
		var dyns []serve.DynamicsRequest
		for k, i := range spread(len(items)/2, 8) {
			dyns = append(dyns, items[2*i+k%2].req) // alternate the batched bit
		}
		if err := probeLayers(ctx, cfg, tr, checks, dyns, out.values); err != nil {
			return nil, err
		}
		if err := probeServe(ctx, cfg, tr, checks[:min(len(checks), 20)], out.values); err != nil {
			return nil, err
		}
	}
	return out, nil
}
