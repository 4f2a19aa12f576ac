package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/pricing"
	"repro/internal/serve"
)

// setupReps is how many times the certify and dynamics workloads repeat
// their set-up; setup_s is the median.
const setupReps = 15

// decoded is one wire request resolved for core.CheckCtx.
type decoded struct {
	caseIdx int
	req     serve.CheckRequest
	g       *graph.Graph
	spec    core.CheckSpec
}

// verdictKey renders what a check must reproduce: the stability bit and
// the witness. Verdict.Batched only reports the path taken, so it is left
// out and the two settings of the batched bit must agree on the key.
func verdictKey(v core.Verdict) string {
	if v.Violation == nil {
		return strconv.FormatBool(v.Stable)
	}
	return fmt.Sprintf("%t %+v", v.Stable, *v.Violation)
}

// digest is the checked-in fingerprint of one case's verdict.
func digest(id, key string) string {
	sum := sha256.Sum256([]byte(id + "\x00" + key))
	return hex.EncodeToString(sum[:4])
}

// setupCertify resolves every wire request (graph decode, model build)
// and warms the shared pricing engine; it is the certify workload's
// set-up, run setupReps times.
func setupCertify(cases []certCase, workers int) ([]decoded, float64, error) {
	var items []decoded
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		pricing.Shared(workers)
		items = items[:0]
		for ci, c := range cases {
			for _, r := range bothBatched(c.Req) {
				g, spec, err := decodeCheck(r, workers)
				if err != nil {
					return nil, 0, fmt.Errorf("%s: %w", c.ID, err)
				}
				items = append(items, decoded{caseIdx: ci, req: r, g: g, spec: spec})
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return items, median(times), nil
}

func runCertify(cfg config, tr *tracer) (*outcome, error) {
	return certifyWorkload(cfg, tr, fullCertify)
}

// certifyWorkload checks the batch one request at a time through
// core.CheckCtx, in whole shuffled passes until the time is up; the
// throughput is that of the median pass.
func certifyWorkload(cfg config, tr *tracer, size certifySize) (*outcome, error) {
	ctx := context.Background()
	cases, err := certifyCases(cfg.seed, cfg.workers, size)
	if err != nil {
		return nil, err
	}
	items, setupS, err := setupCertify(cases, cfg.workers)
	if err != nil {
		return nil, err
	}
	out := &outcome{setupS: setupS, values: map[string]float64{}, props: map[string]any{}}
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(items))
	verdicts := make([]string, len(items))
	seen := make([]bool, len(items))
	stableRan := make([]bool, len(items))
	var lat latencies
	batchedRan := 0
	times, overhead := passes(cfg, tr, order, func(i int, t *tracer) {
		it := &items[i]
		end := t.begin("core.CheckCtx")
		t0 := time.Now()
		v, err := core.CheckCtx(ctx, it.g, it.spec)
		d := time.Since(t0)
		end()
		out.attempted++
		lat = append(lat, ms(d))
		if err != nil {
			out.fail("%s batched=%t: %v", cases[it.caseIdx].ID, it.req.Batched, err)
			return
		}
		k := verdictKey(v)
		if seen[i] && verdicts[i] != k {
			out.fail("%s batched=%t: verdict changed between passes: %s then %s", cases[it.caseIdx].ID, it.req.Batched, verdicts[i], k)
		}
		seen[i], verdicts[i], stableRan[i] = true, k, v.Stable
		if v.Batched {
			batchedRan++
		}
	})

	// Gate: both settings of the batched bit agree, and every verdict
	// matches the checked-in digest for this seed when there is one.
	want, err := loadDigests(cfg.digests, cfg.seed)
	if err != nil {
		return nil, err
	}
	byCase := make([][]int, len(cases))
	for i, it := range items {
		byCase[it.caseIdx] = append(byCase[it.caseIdx], i)
	}
	stable := 0
	for ci, idx := range byCase {
		a, b := verdicts[idx[0]], verdicts[idx[1]]
		if a != b {
			out.fail("%s: batched=false gives %s, batched=true gives %s", cases[ci].ID, a, b)
		}
		if want != nil {
			if d, ok := want[cases[ci].ID]; !ok || d != digest(cases[ci].ID, a) {
				out.fail("%s: verdict %s does not match the checked-in digest %q", cases[ci].ID, a, d)
			}
		}
		if stableRan[idx[0]] {
			stable++
		}
	}

	out.values["throughput_per_s"] = float64(len(items)) / medianPass(times)
	out.values["p50_ms"] = lat.p50()
	tail, pct := lat.tail()
	out.values["tail_ms"] = tail

	ns := map[int]int{}
	exact := 0
	for _, it := range items {
		ns[it.g.N()]++
		if it.g.N() <= iso.MaxExactN {
			exact++
		}
	}
	out.props["n_mix"] = ns
	out.props["cases"] = len(cases)
	out.props["equilibrium_share"] = float64(stable) / float64(len(cases))
	out.props["hit_share"] = 0.0
	out.props["exact_iso_share"] = float64(exact) / float64(len(items))
	out.props["batched_share"] = 0.5
	out.props["passes"] = len(times)
	out.props["samples"] = len(lat)
	out.props["tail_pct"] = pct
	out.props["digest_checked"] = want != nil
	out.props["batched_ran_share"] = float64(batchedRan) / float64(max(len(lat), 1))

	if tr != nil {
		out.values["trace.overhead_ratio"] = overhead
		var checks []serve.CheckRequest
		var dyns []serve.DynamicsRequest
		for ci, c := range cases {
			checks = append(checks, bothBatched(c.Req)[ci%2])
		}
		// Dynamics from the near-misses of the smallest size, one per
		// model × objective, in both batched settings. Dynamics need a
		// connected start, which interests equilibria need not be.
		for ci, c := range cases {
			if strings.HasSuffix(c.ID, fmt.Sprintf("/nm-eq%d", size.trees[0])) && items[byCase[ci][0]].g.IsConnected() {
				pair := bothBatchedDynamics(serve.DynamicsRequest{Graph: c.Req.Graph, Model: c.Req.Model, Objective: c.Req.Objective, Policy: "best", MaxMoves: 50_000})
				dyns = append(dyns, pair[:]...)
			}
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

// loadDigests returns the checked-in digests for seed, or nil when the
// file has none for it.
func loadDigests(path string, seed int64) (map[string]string, error) {
	all, err := readDigestFile(path)
	if err != nil {
		return nil, err
	}
	return all[strconv.FormatInt(seed, 10)], nil
}

func readDigestFile(path string) (map[string]map[string]string, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return map[string]map[string]string{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("digests: %w", err)
	}
	all := map[string]map[string]string{}
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("digests %s: %w", path, err)
	}
	return all, nil
}

// recordDigests certifies every case of the seed's batch with the batched
// bit off and on, and stores the digests when both agree.
func recordDigests(cfg config, size certifySize) error {
	cases, err := certifyCases(cfg.seed, cfg.workers, size)
	if err != nil {
		return err
	}
	got := map[string]string{}
	for _, c := range cases {
		var keys []string
		for _, r := range bothBatched(c.Req) {
			g, spec, err := decodeCheck(r, cfg.workers)
			if err != nil {
				return err
			}
			v, err := core.CheckCtx(context.Background(), g, spec)
			if err != nil {
				return fmt.Errorf("%s: %w", c.ID, err)
			}
			keys = append(keys, verdictKey(v))
		}
		if keys[0] != keys[1] {
			return fmt.Errorf("%s: batched=false gives %s, batched=true gives %s", c.ID, keys[0], keys[1])
		}
		got[c.ID] = digest(c.ID, keys[0])
	}
	all, err := readDigestFile(cfg.digests)
	if err != nil {
		return err
	}
	all[strconv.FormatInt(cfg.seed, 10)] = got
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.digests, append(b, '\n'), 0o644)
}
