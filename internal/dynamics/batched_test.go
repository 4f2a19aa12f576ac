package dynamics

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/treegen"
)

// perAgent hides every optional capability of the wrapped instance, so
// drive takes the per-agent paths on it: the reference the shared-row
// path is pinned against.
type perAgent struct{ game.Instance }

// runPerAgent is Run forced onto the per-agent paths.
func runPerAgent(g *graph.Graph, opt Options) (*Result, error) {
	spec := opt.Spec()
	if err := validate(g, &spec); err != nil {
		return nil, err
	}
	return drive(context.Background(), perAgent{spec.model().New(g, spec.Workers)}, spec)
}

// TestBatchedSweepsIdenticalTrajectories pins that routing a trajectory
// through the session row cache — the sweeping policies' per-agent scans,
// the random policy's thresholded probes, and every policy's certification
// sweeps all go through the cache's shared rows — changes nothing
// observable against the per-agent paths: same moves, same costs, same
// sweep and convergence accounting, for the models that have the cached
// paths and for one that falls back (2-neighborhood).
func TestBatchedSweepsIdenticalTrajectories(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	models := []game.Model{
		game.Swap{},
		game.RandomInterests(48, 0.4, rng),
		game.Budget{K: 3},
		game.Greedy{EdgeCost: 2},
		game.TwoNeighborhood{}, // no shared-row pass: exercises the fallback
	}
	base := treegen.RandomTree(48, rng)
	for _, model := range models {
		for _, policy := range []Policy{BestResponse, FirstImprovement, RandomImproving} {
			for _, obj := range []game.Objective{game.Sum, game.Max} {
				opt := Options{
					Objective: obj, Policy: policy, Model: model,
					Workers: 2, Seed: 5, Trace: true, MaxMoves: 400,
				}
				gSeq, gBat := base.Clone(), base.Clone()
				seq, err := runPerAgent(gSeq, opt)
				if err != nil {
					t.Fatal(err)
				}
				if seq.Batched != BatchedFallback {
					t.Fatalf("%s/%v/%v: per-agent reference reported %v", model.Name(), policy, obj, seq.Batched)
				}
				bat, err := Run(gBat, opt)
				if err != nil {
					t.Fatal(err)
				}
				if seq.Converged != bat.Converged || seq.Moves != bat.Moves || seq.Sweeps != bat.Sweeps {
					t.Fatalf("%s/%v/%v: results diverge: per-agent %+v, shared-row %+v",
						model.Name(), policy, obj, seq, bat)
				}
				if len(seq.Trace) != len(bat.Trace) {
					t.Fatalf("%s/%v/%v: trace lengths diverge", model.Name(), policy, obj)
				}
				for i := range seq.Trace {
					if seq.Trace[i] != bat.Trace[i] {
						t.Fatalf("%s/%v/%v: trace entry %d diverges: %+v vs %+v",
							model.Name(), policy, obj, i, seq.Trace[i], bat.Trace[i])
					}
				}
				if !gSeq.Equal(gBat) {
					t.Fatalf("%s/%v/%v: final graphs diverge", model.Name(), policy, obj)
				}
			}
		}
	}
}
