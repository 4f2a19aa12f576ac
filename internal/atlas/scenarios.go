package atlas

import (
	"fmt"
	"math/rand"

	"repro/internal/serve"
)

// Scenarios converts corpus entries into replayable service scenarios for
// the load generator: every selected entry becomes a CheckRequest with the
// entry's exact model, objective, and side-condition selection (so the
// expected verdict is the stored one) — the wider scenario-diversity set
// the hardcoded path/star/torus mix lacked. Equilibrium entries also
// replay with the deprecated batched bit set, which the server must accept
// and answer from the same cache entry. max > 0 bounds the selection by
// drawing a seeded uniform sample without replacement (deterministic per
// seed); max <= 0 takes the whole corpus.
func Scenarios(c *Corpus, max int, seed int64) []serve.Scenario {
	idx := make([]int, len(c.Entries))
	for i := range idx {
		idx[i] = i
	}
	if max > 0 && max < len(idx) {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		idx = idx[:max]
	}
	var out []serve.Scenario
	for _, i := range idx {
		e := &c.Entries[i]
		base := serve.CheckRequest{
			Graph:      serve.GraphDTO{Format: serve.FormatSparse6, Data: e.Sparse6},
			Model:      e.Model,
			Objective:  e.Objective,
			StableOnly: e.StableOnly,
		}
		out = append(out, serve.Scenario{
			Name:  fmt.Sprintf("atlas/%s", e.ID),
			Check: &base,
		})
		if e.Kind == KindEquilibrium {
			batched := base
			batched.Batched = true
			out = append(out, serve.Scenario{
				Name:  fmt.Sprintf("atlas/%s/batched", e.ID),
				Check: &batched,
			})
		}
	}
	return out
}

// LoadScenarios reads the corpus in dir and returns up to max scenarios
// (see Scenarios).
func LoadScenarios(dir string, max int, seed int64) ([]serve.Scenario, error) {
	c, err := Read(dir)
	if err != nil {
		return nil, err
	}
	return Scenarios(c, max, seed), nil
}
