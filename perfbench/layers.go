package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/iso"
	"repro/internal/pricing"
	"repro/internal/serve"
)

// The traced run's layer probes. Each times calls into one module's public
// functions on the workload's own inputs, inside spans named after the
// call, and turns the spans into that layer's metrics.

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// spread picks up to k evenly spaced indices of [0, n).
func spread(n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

func objName(s string) string {
	if s == "" {
		return "sum"
	}
	return s
}

func pobj(s string) pricing.Objective {
	if s == "max" {
		return pricing.Max
	}
	return pricing.Sum
}

// probeLayers fills the graphio, iso, core, game, pricing, graph and
// dynamics metrics from checks and dyns.
func probeLayers(ctx context.Context, cfg config, tr *tracer, checks []serve.CheckRequest, dyns []serve.DynamicsRequest, vals map[string]float64) error {
	var dec, enc, size, cert latencies
	exact := 0
	graphs := make([]*graph.Graph, len(checks))
	for i, r := range checks {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		size = append(size, float64(len(b)))
		var g *graph.Graph
		dec = append(dec, us(tr.timeCall("graphio.Decode", func() { g, err = r.Graph.Decode() })))
		if err != nil {
			return fmt.Errorf("probe decode: %w", err)
		}
		enc = append(enc, us(tr.timeCall("graphio.ToSparse6", func() { _, err = graphio.ToSparse6(g) })))
		if err != nil {
			return fmt.Errorf("probe encode: %w", err)
		}
		cert = append(cert, us(tr.timeCall("iso.Certificate", func() { iso.Certificate(g) })))
		if g.N() <= iso.MaxExactN {
			exact++
		}
		graphs[i] = g
	}
	vals["graphio.decode_us"] = dec.mean()
	vals["graphio.encode_us"] = enc.mean()
	vals["graphio.request_bytes"] = size.mean()
	vals["iso.cert_us"] = cert.mean()
	vals["iso.cert_tail_us"], _ = cert.tail()
	vals["iso.exact_share"] = float64(exact) / float64(max(len(checks), 1))

	combos := map[string]latencies{}
	var newUS, sweepMS latencies
	stable, batched := 0, 0
	for _, r := range checks {
		g, spec, err := decodeCheck(r, cfg.workers)
		if err != nil {
			return err
		}
		var v core.Verdict
		d := tr.timeCall("core.CheckCtx", func() { v, err = core.CheckCtx(ctx, g, spec) })
		if err != nil {
			return fmt.Errorf("probe check: %w", err)
		}
		key := "core.check_ms." + modelName(r.Model) + "." + objName(r.Objective)
		combos[key] = append(combos[key], ms(d))
		if v.Stable {
			stable++
		}
		if v.Batched {
			batched++
		}
		var inst game.Instance
		newUS = append(newUS, us(tr.timeCall("game.Model.New", func() { inst = spec.Model.New(g, cfg.workers) })))
		obj := spec.Objective
		d = tr.timeCall("game.sweep", func() {
			switch {
			case modelName(r.Model) != "swap":
				_, _, err = game.CheckStableCtx(ctx, inst, obj, spec.Batched && game.HasBatchedSweep(inst))
			case spec.Batched:
				_, _, err = game.CheckSwapBatchedCtx(ctx, g, obj, cfg.workers, !spec.StableOnly)
			default:
				_, _, err = game.CheckSwapCtx(ctx, g, obj, cfg.workers, !spec.StableOnly)
			}
		})
		game.CloseInstance(inst)
		if err != nil {
			return fmt.Errorf("probe sweep: %w", err)
		}
		sweepMS = append(sweepMS, ms(d))
	}
	for k, l := range combos {
		vals[k] = l.mean()
	}
	vals["game.new_us"] = newUS.mean()
	vals["game.sweep_ms"] = sweepMS.mean()
	vals["game.equilibrium_share"] = float64(stable) / float64(max(len(checks), 1))
	vals["core.batched_share"] = float64(batched) / float64(max(len(checks), 1))

	probeKernels(cfg, tr, checks, graphs, vals)
	return probeDynamics(ctx, cfg, tr, dyns, vals)
}

// probeKernels times the pricing scan, the PatchedBelow kernel and the BFS
// rows on a spread of the workload's graphs.
func probeKernels(cfg config, tr *tracer, checks []serve.CheckRequest, graphs []*graph.Graph, vals map[string]float64) {
	const reps = 20
	var scanUS, patchNS, patchBytes, bfsNS, skipNS, rowBytes latencies
	var sink int64
	eng := pricing.Shared(cfg.workers)
	for _, gi := range spread(len(graphs), 8) {
		g, obj := graphs[gi], pobj(checks[gi].Objective)
		n := g.N()
		sess := eng.NewSession(g)
		agents := spread(n, 8)
		for _, v := range agents {
			scanUS = append(scanUS, us(tr.timeCall("pricing.Scan.BestMove", func() {
				sc := sess.NewScan(v)
				best, _ := sc.BestMove(obj, false)
				sink += best.Cost
				sc.Close()
			})))
		}
		sess.Close()

		f := g.Freeze()
		rows := make([][]int32, len(agents))
		queue := make([]int32, n)
		for i, v := range agents {
			rows[i] = make([]int32, n)
			f.BFSInto(v, rows[i], queue)
		}
		calls := 0
		d := tr.timeCall("pricing.PatchedBelow", func() {
			for k := 0; k < reps; k++ {
				for i := 1; i < len(rows); i++ {
					c, _ := pricing.PatchedBelow(rows[0], rows[i], obj, pricing.Usage(rows[0], obj))
					sink += c
					calls++
				}
			}
		})
		if calls > 0 {
			patchNS = append(patchNS, float64(d.Nanoseconds())/float64(calls))
			patchBytes = append(patchBytes, float64(2*4*n))
		}

		dist := make([]int32, n)
		d = tr.timeCall("graph.Frozen.BFSInto", func() {
			for k := 0; k < reps; k++ {
				for _, v := range agents {
					f.BFSInto(v, dist, queue)
				}
			}
		})
		bfsNS = append(bfsNS, float64(d.Nanoseconds())/float64(reps*len(agents)))
		dyn := g.Thaw()
		d = tr.timeCall("graph.Dyn.BFSSkipVertex", func() {
			for k := 0; k < reps; k++ {
				for _, v := range agents {
					dyn.BFSSkipVertex(v, (v+1)%n, dist, queue)
				}
			}
		})
		skipNS = append(skipNS, float64(d.Nanoseconds())/float64(reps*len(agents)))
		// A row reads the CSR offsets and adjacency and writes dist and queue.
		rowBytes = append(rowBytes, float64(4*(n+1)+4*2*g.M()+4*n+4*n))
	}
	_ = sink
	vals["pricing.scan_agent_us"] = scanUS.mean()
	vals["pricing.patched_below_ns"] = patchNS.mean()
	vals["pricing.patched_below_bytes"] = patchBytes.mean()
	vals["graph.bfs_row_ns"] = bfsNS.mean()
	vals["graph.bfs_skip_vertex_ns"] = skipNS.mean()
	vals["graph.bfs_row_bytes"] = rowBytes.mean()
}

// probeDynamics runs each request with an OnMove observer, then replays
// the recorded moves through a pricing session with a row cache.
func probeDynamics(ctx context.Context, cfg config, tr *tracer, dyns []serve.DynamicsRequest, vals map[string]float64) error {
	var moveMS, finalMS, moves, sweeps, recomputed, invalidated, applyUS, syncUS, rowsPerSync latencies
	eng := pricing.Shared(cfg.workers)
	for _, r := range dyns {
		g, spec, err := decodeDynamics(r, cfg.workers)
		if err != nil {
			return err
		}
		start := g.Clone()
		var trail []game.Move
		last := time.Now()
		spec.OnMove = func(te dynamics.TraceEntry) {
			now := time.Now()
			moveMS = append(moveMS, ms(now.Sub(last)))
			last = now
			trail = append(trail, te.Move)
		}
		var res *dynamics.Result
		tr.timeCall("dynamics.RunSpecCtx", func() { res, err = dynamics.RunSpecCtx(ctx, g, spec) })
		if err != nil {
			return fmt.Errorf("probe dynamics: %w", err)
		}
		finalMS = append(finalMS, ms(time.Since(last)))
		moves = append(moves, float64(res.Moves))
		sweeps = append(sweeps, float64(res.Sweeps))
		recomputed = append(recomputed, float64(res.RowsRecomputed))
		invalidated = append(invalidated, float64(res.RowsInvalidated))

		sess := eng.NewSession(start)
		rc := sess.RowCache()
		rc.Sync(cfg.workers, nil)
		for _, m := range trail {
			applyUS = append(applyUS, us(tr.timeCall("pricing.Session.Apply", func() {
				switch m.Kind {
				case game.KindAdd:
					sess.ApplyAdd(m.V, m.Add)
				case game.KindDelete:
					sess.ApplyRemove(m.V, m.Drop)
				default:
					sess.ApplySwap(m.V, m.Drop, m.Add)
				}
			})))
			before := rc.Recomputed()
			syncUS = append(syncUS, us(tr.timeCall("pricing.RowCache.Sync", func() { rc.Sync(cfg.workers, nil) })))
			rowsPerSync = append(rowsPerSync, float64(rc.Recomputed()-before))
		}
		sess.Close()
	}
	vals["dynamics.move_ms"] = moveMS.mean()
	vals["dynamics.final_sweep_ms"] = finalMS.mean()
	vals["dynamics.moves"] = moves.mean()
	vals["dynamics.sweeps"] = sweeps.mean()
	vals["pricing.rows_recomputed"] = recomputed.mean()
	vals["pricing.rows_invalidated"] = invalidated.mean()
	vals["pricing.apply_us"] = applyUS.mean()
	vals["pricing.sync_us"] = syncUS.mean()
	vals["pricing.rows_per_sync"] = rowsPerSync.mean()
	return nil
}

// probeServe fills the serve metrics for workloads that do not drive the
// server themselves: each check is sent as a burst of cfg.workers
// identical copies (one certifies, the rest coalesce or hit), then alone
// (an idle hit), then as concurrent hits (a loaded hit), and finally
// in-process, so the HTTP cost is the idle hit minus the in-process one.
func probeServe(ctx context.Context, cfg config, tr *tracer, checks []serve.CheckRequest, vals map[string]float64) error {
	svc, _, replay, err := setupService(cfg, 1)
	if err != nil {
		return err
	}
	defer func() {
		if err := svc.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping server:", err)
		}
	}()
	vals["serve.store_replay_s"] = replay
	before := svc.srv.Stats()
	concurrent := func(j job) (time.Duration, error) {
		var wg sync.WaitGroup
		errs := make([]error, cfg.workers)
		t0 := time.Now()
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[w] = svc.send(ctx, j)
			}()
		}
		wg.Wait()
		d := time.Since(t0)
		for _, e := range errs {
			if e != nil {
				return d, e
			}
		}
		return d, nil
	}
	var httpUS, wait latencies
	for _, r := range checks {
		j := job{kind: "probe", check: &r}
		end := tr.begin("serve.http.burst")
		_, err := concurrent(j)
		end()
		if err != nil {
			return fmt.Errorf("probe serve: %w", err)
		}
		var idle time.Duration
		idle = tr.timeCall("serve.http.idle", func() { _, err = svc.send(ctx, j) })
		if err != nil {
			return fmt.Errorf("probe serve: %w", err)
		}
		var loaded time.Duration
		tr.timeCall("serve.http.loaded", func() { loaded, err = concurrent(j) })
		if err != nil {
			return fmt.Errorf("probe serve: %w", err)
		}
		inproc := tr.timeCall("serve.Server.Check", func() { _, err = svc.srv.Check(ctx, r) })
		if err != nil {
			return fmt.Errorf("probe serve: %w", err)
		}
		httpUS = append(httpUS, us(idle-inproc))
		wait = append(wait, ms(loaded-idle))
	}
	after := svc.srv.Stats()
	sent := float64(max(len(checks)*(2*cfg.workers+2), 1))
	vals["serve.hit_ratio"] = float64(after.Cache.Hits-before.Cache.Hits) / sent
	vals["serve.store_hit_ratio"] = float64(store(after).Hits-store(before).Hits) / sent
	vals["serve.coalesced_ratio"] = float64(after.Coalesce.Coalesced-before.Coalesce.Coalesced) / sent
	vals["serve.store_appends"] = float64(store(after).Appends - store(before).Appends)
	vals["serve.http_us"] = httpUS.p50()
	vals["serve.wait_ms"] = wait.p50()
	return nil
}
