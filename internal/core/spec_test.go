package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/pricing"
	"repro/internal/treegen"
)

// specCorpus is a small graph zoo exercising stable and unstable cases.
func specCorpus() map[string]*graph.Graph {
	star := graph.New(9)
	for v := 1; v < 9; v++ {
		star.AddEdge(0, v)
	}
	rng := rand.New(rand.NewSource(7))
	return map[string]*graph.Graph{
		"path9":   pathGraph(9),
		"star9":   star,
		"rtree13": treegen.RandomTree(13, rng),
	}
}

// TestCheckSpecMatchesDeprecatedSurface pins that the unified Check
// reproduces every historical checker bit-for-bit across the spec axes —
// the compatibility contract of the API collapse.
func TestCheckSpecMatchesDeprecatedSurface(t *testing.T) {
	for name, g := range specCorpus() {
		for _, obj := range []Objective{Sum, Max} {
			for _, batched := range []bool{false, true} {
				for _, stableOnly := range []bool{false, true} {
					spec := CheckSpec{Objective: obj, StableOnly: stableOnly, Batched: batched, Workers: 2}
					v, err := Check(g.Clone(), spec)
					if err != nil {
						t.Fatalf("%s %v: %v", name, spec, err)
					}
					// The historical path: game-layer checkers invoked the
					// way the old named wrappers did.
					var (
						wantOK   bool
						wantViol *Violation
						wantErr  error
					)
					if batched {
						wantOK, wantViol, wantErr = game.CheckSwapBatched(g.Clone(), obj, 2, !stableOnly)
					} else {
						wantOK, wantViol, wantErr = game.CheckSwap(g.Clone(), obj, 2, !stableOnly)
					}
					if wantErr != nil {
						t.Fatalf("%s: reference: %v", name, wantErr)
					}
					if v.Stable != wantOK || !reflect.DeepEqual(v.Violation, wantViol) {
						t.Errorf("%s %+v: Check=(%v,%+v), game layer=(%v,%+v)",
							name, spec, v.Stable, v.Violation, wantOK, wantViol)
					}
					// The requested bit is ignored: the engine takes the
					// shared-row path on every graph whose rows fit.
					if want := pricing.RowCacheFits(g.N()); v.Batched != want {
						t.Errorf("%s: swap model Verdict.Batched=%v (requested %v), want the engine's choice %v",
							name, v.Batched, batched, want)
					}
				}
			}
		}
	}
}

// TestCheckSpecBatchedFallbackReporting pins Verdict.Batched for non-swap
// models: true only when the model's instance actually has a shared-row
// pass, whatever the request asked for.
func TestCheckSpecBatchedFallbackReporting(t *testing.T) {
	g := pathGraph(8)
	sets := make([][]int32, 8)
	for v := range sets {
		sets[v] = []int32{int32((v + 1) % 8)}
	}
	cases := []struct {
		name        string
		model       game.Model
		wantBatched bool
	}{
		{"greedy", game.Greedy{EdgeCost: 2}, true},
		{"2nb", game.TwoNeighborhood{}, false},
		{"interests", game.NewInterests(sets), true},
		{"budget", game.Budget{K: 3}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v, err := Check(g.Clone(), CheckSpec{Model: tc.model, Batched: true})
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			if v.Batched != tc.wantBatched {
				t.Errorf("Verdict.Batched=%v, want %v", v.Batched, tc.wantBatched)
			}
			// And identical verdicts to the per-agent reference path.
			plain, err := CheckPerAgent(g.Clone(), CheckSpec{Model: tc.model})
			if err != nil {
				t.Fatalf("per-agent check: %v", err)
			}
			if plain.Batched {
				t.Errorf("CheckPerAgent reported the shared-row path")
			}
			if v.Stable != plain.Stable || !reflect.DeepEqual(v.Violation, plain.Violation) {
				t.Errorf("shared-row verdict (%v,%+v) != per-agent (%v,%+v)",
					v.Stable, v.Violation, plain.Stable, plain.Violation)
			}
		})
	}
}

// TestCheckCtxCancellation: an already-canceled context aborts the check
// with the context error for every execution path.
func TestCheckCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := pathGraph(16)
	for _, spec := range []CheckSpec{
		{},
		{Batched: true},
		{Model: game.Greedy{EdgeCost: 2}},
		{Model: game.Budget{K: 3}, Batched: true},
	} {
		if _, err := CheckCtx(ctx, g.Clone(), spec); err != context.Canceled {
			t.Errorf("spec %+v: err=%v, want context.Canceled", spec, err)
		}
	}
}

// TestSharedRowSizeBoundary pins the one size rule: a graph whose row
// arenas (5n² bytes) just fit in pricing.RowCacheMaxBytes takes the
// shared-row path, and one vertex more falls back to the per-agent path —
// with the same verdict and witness. Paths exit at agent 0, and rows are
// filled on read, so neither check touches more than a few rows of its
// arena.
func TestSharedRowSizeBoundary(t *testing.T) {
	limit := 0
	for pricing.RowCacheFits(limit + 1) {
		limit++
	}
	if 5*limit*limit > pricing.RowCacheMaxBytes || 5*(limit+1)*(limit+1) <= pricing.RowCacheMaxBytes {
		t.Fatalf("RowCacheFits boundary at n=%d disagrees with 5n² ≤ %d", limit, pricing.RowCacheMaxBytes)
	}
	for _, tc := range []struct {
		n      int
		shared bool
	}{{limit, true}, {limit + 1, false}} {
		for _, model := range []game.Model{nil, game.Budget{K: 3}} {
			v, err := Check(pathGraph(tc.n), CheckSpec{Model: model, Workers: 1})
			if err != nil {
				t.Fatalf("n=%d: %v", tc.n, err)
			}
			if v.Batched != tc.shared {
				t.Errorf("n=%d model %v: Verdict.Batched=%v, want %v", tc.n, model, v.Batched, tc.shared)
			}
			if v.Stable || v.Violation == nil || v.Violation.Agent != 0 {
				t.Fatalf("n=%d model %v: want a violation at agent 0, got %+v", tc.n, model, v)
			}
			ref, err := CheckPerAgent(pathGraph(tc.n), CheckSpec{Model: model, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(v.Violation, ref.Violation) {
				t.Errorf("n=%d model %v: witness %+v, per-agent %+v", tc.n, model, v.Violation, ref.Violation)
			}
		}
	}
}
