package dynamics

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/treegen"
)

// sameGraph reports edge-set equality of two graphs on the same vertices.
func sameGraph(a, b *graph.Graph) bool {
	return a.N() == b.N() && a.M() == b.M() && reflect.DeepEqual(a.Edges(), b.Edges())
}

// TestOptionsSpecEquivalence pins that the deprecated flat Options and the
// embedded-CheckSpec Spec drive bit-identical trajectories for every
// policy and both values of the ignored batched-sweeps flag. At one worker
// the whole Result matches, row-cache counters included. At two workers
// the counters depend on scheduling (a first-improving scan may read rows
// of endpoints past its winner, and every extra live row can be
// invalidated later), so only the trajectory and verdict fields are
// compared there.
func TestOptionsSpecEquivalence(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, policy := range []Policy{BestResponse, FirstImprovement, RandomImproving} {
			for _, batched := range []bool{false, true} {
				opt := Options{
					Objective:     core.Sum,
					Policy:        policy,
					Workers:       workers,
					Seed:          11,
					BatchedSweeps: batched,
					Trace:         true,
				}
				g1 := treegen.RandomTree(14, rand.New(rand.NewSource(5)))
				g2 := g1.Clone()
				viaOptions, err := Run(g1, opt)
				if err != nil {
					t.Fatalf("Run(Options): %v", err)
				}
				viaSpec, err := RunSpec(g2, opt.Spec())
				if err != nil {
					t.Fatalf("RunSpec: %v", err)
				}
				a, b := *viaOptions, *viaSpec
				if workers > 1 {
					a.RowsRecomputed, b.RowsRecomputed = 0, 0
					a.RowsInvalidated, b.RowsInvalidated = 0, 0
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("workers %d policy %v batched %v: Options run %+v != Spec run %+v",
						workers, policy, batched, viaOptions, viaSpec)
				}
				if !sameGraph(g1, g2) {
					t.Errorf("workers %d policy %v batched %v: final graphs diverge", workers, policy, batched)
				}
			}
		}
	}
}

// TestResultBatchedStates pins the path report: active for models with a
// shared-row pass whatever the request asked for, fallback for 2nb and the
// naive oracle.
func TestResultBatchedStates(t *testing.T) {
	cases := []struct {
		name    string
		model   game.Model
		batched bool
		want    BatchedState
	}{
		{"swap off", nil, false, BatchedActive},
		{"swap active", nil, true, BatchedActive},
		{"greedy active", game.Greedy{EdgeCost: 2}, true, BatchedActive},
		{"2nb fallback", game.TwoNeighborhood{}, true, BatchedFallback},
		{"budget active", game.Budget{K: 3}, true, BatchedActive},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := treegen.RandomTree(10, rand.New(rand.NewSource(3)))
			res, err := RunSpec(g, Spec{
				CheckSpec: core.CheckSpec{Model: tc.model, Batched: tc.batched, Workers: 2},
				Policy:    BestResponse,
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Batched != tc.want {
				t.Errorf("Result.Batched=%v, want %v", res.Batched, tc.want)
			}
		})
	}
	// The naive oracle never has a shared-row pass: always fallback.
	g := treegen.RandomTree(10, rand.New(rand.NewSource(3)))
	res, err := NaiveRunSpec(g, Spec{
		CheckSpec: core.CheckSpec{Batched: true, Workers: 1},
		Policy:    BestResponse,
	})
	if err != nil {
		t.Fatalf("naive run: %v", err)
	}
	if res.Batched != BatchedFallback {
		t.Errorf("naive Result.Batched=%v, want fallback", res.Batched)
	}
}

// TestRunSpecCtxCancellation: an already-canceled context stops the run
// before any move and reports non-convergence with the context error.
func TestRunSpecCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, policy := range []Policy{BestResponse, RandomImproving} {
		g := treegen.RandomTree(12, rand.New(rand.NewSource(9)))
		res, err := RunSpecCtx(ctx, g, Spec{Policy: policy, Seed: 1})
		if err != context.Canceled {
			t.Errorf("policy %v: err=%v, want context.Canceled", policy, err)
		}
		if res != nil && res.Converged {
			t.Errorf("policy %v: canceled run reported convergence", policy)
		}
	}
}
