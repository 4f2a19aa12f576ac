package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/constructions"
	"repro/internal/graph"
	"repro/internal/treegen"
)

// Scenario is one replayable request of the load corpus: exactly one of
// Check or Dynamics is set.
type Scenario struct {
	Name     string
	Check    *CheckRequest
	Dynamics *DynamicsRequest
}

// torus is the rows×cols grid with wraparound in both directions.
func torus(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddEdge(id(r, c), id((r+1)%rows, c))
			g.AddEdge(id(r, c), id(r, (c+1)%cols))
		}
	}
	return g
}

// ringInterests gives every vertex of an n-vertex graph interest in its
// two cyclic successors — a deterministic nontrivial interest pattern.
func ringInterests(n int) [][]int32 {
	sets := make([][]int32, n)
	for v := 0; v < n; v++ {
		sets[v] = []int32{int32((v + 1) % n), int32((v + 2) % n)}
	}
	return sets
}

// mustSparse6 encodes g, panicking on failure (corpus graphs are fixed
// shapes that always encode).
func mustSparse6(g *graph.Graph) GraphDTO {
	d, err := EncodeGraph(g, FormatSparse6)
	if err != nil {
		panic(err)
	}
	return d
}

// Corpus builds the mixed scenario set the load generator replays: the
// four graph families (path, star, torus, seeded random trees) crossed
// with all five deviation models, both objectives and both scan paths for
// the swap game, plus a dynamics run per policy. Identical for a given
// seed, so every client issues the same requests and the verdict LRU sees
// repeats both across clients and across a client's rounds.
func Corpus(seed int64) []Scenario {
	rng := rand.New(rand.NewSource(seed))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path12", constructions.Path(12)},
		{"star16", constructions.Star(16)},
		{"torus4x4", torus(4, 4)},
		{"rtree18", treegen.RandomTree(18, rng)},
		{"rtree11", treegen.RandomTree(11, rng)},
	}
	models := func(n int) []struct {
		name string
		dto  ModelDTO
	} {
		return []struct {
			name string
			dto  ModelDTO
		}{
			{"swap", ModelDTO{}},
			{"greedy", ModelDTO{Name: "greedy"}},
			{"interests", ModelDTO{Name: "interests", Interests: ringInterests(n)}},
			{"budget", ModelDTO{Name: "budget", Budget: 2}},
			{"2nb", ModelDTO{Name: "2nb"}},
		}
	}

	var out []Scenario
	for _, gr := range graphs {
		dto := mustSparse6(gr.g)
		for _, m := range models(gr.g.N()) {
			out = append(out, Scenario{
				Name:  fmt.Sprintf("check/%s/%s/sum", gr.name, m.name),
				Check: &CheckRequest{Graph: dto, Model: m.dto, Objective: "sum"},
			})
		}
		// The swap game additionally exercises max, the stable-only
		// variant, and the deprecated batched bit, which must be accepted,
		// ignored, and answered from the same cache entry as plain sum.
		out = append(out,
			Scenario{
				Name:  fmt.Sprintf("check/%s/swap/max", gr.name),
				Check: &CheckRequest{Graph: dto, Objective: "max"},
			},
			Scenario{
				Name:  fmt.Sprintf("check/%s/swap/max-stableonly", gr.name),
				Check: &CheckRequest{Graph: dto, Objective: "max", StableOnly: true},
			},
			Scenario{
				Name:  fmt.Sprintf("check/%s/swap/sum-batched", gr.name),
				Check: &CheckRequest{Graph: dto, Objective: "sum", Batched: true},
			},
		)
	}

	dynGraph := mustSparse6(constructions.Path(9))
	out = append(out,
		Scenario{
			Name:     "dynamics/path9/swap/best",
			Dynamics: &DynamicsRequest{Graph: dynGraph, Objective: "sum", Policy: "best"},
		},
		Scenario{
			Name:     "dynamics/path9/greedy/first",
			Dynamics: &DynamicsRequest{Graph: dynGraph, Model: ModelDTO{Name: "greedy"}, Objective: "sum", Policy: "first"},
		},
		Scenario{
			Name: "dynamics/path9/swap/random-batched",
			Dynamics: &DynamicsRequest{
				Graph: dynGraph, Objective: "sum", Policy: "random",
				Seed: seed + 1, Batched: true, Certify: true,
			},
		},
	)
	return out
}

// LoadOptions configures RunLoad.
type LoadOptions struct {
	// Clients is the number of concurrent clients (default 8).
	Clients int
	// Rounds is how many times each client replays the corpus (default 2,
	// so even a single client re-hits every cacheable verdict).
	Rounds int
	// Seed drives Corpus (default 1).
	Seed int64
	// Extra scenarios are replayed alongside the built-in corpus and
	// verified the same way (bit-identical to the one-shot path). The CLI
	// seeds these from the checked-in equilibrium atlas (internal/atlas),
	// widening scenario diversity far beyond the hardcoded mix.
	Extra []Scenario
	// Timeout bounds each HTTP request (default 60s).
	Timeout time.Duration
}

func (o LoadOptions) withDefaults() LoadOptions {
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Rounds <= 0 {
		o.Rounds = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	return o
}

// LoadReport is the outcome of a load run.
type LoadReport struct {
	Clients  int           `json:"clients"`
	Rounds   int           `json:"rounds"`
	Requests int           `json:"requests"`
	Failures []string      `json:"failures,omitempty"`
	Duration time.Duration `json:"-"`
	// DurationMS mirrors Duration for the JSON rendering.
	DurationMS int64 `json:"duration_ms"`
	// Stats is the server's /stats snapshot after the run.
	Stats StatsSnapshot `json:"stats"`
}

// RunLoad replays the corpus against a live server from Clients concurrent
// clients and verifies every response bit-for-bit against the direct
// in-process one-shot path (the same code the CLI runs without a server):
// identical JSON for the verdict fields of checks, identical trajectories,
// final graphs and verdicts for dynamics. Any divergence or transport failure is a
// Failure line; the report also carries the server's /stats snapshot,
// where a warm verdict LRU shows up as a nonzero hit rate.
func RunLoad(ctx context.Context, baseURL string, opts LoadOptions) (*LoadReport, error) {
	opts = opts.withDefaults()
	corpus := append(Corpus(opts.Seed), opts.Extra...)

	// Reference answers, computed once through the direct path.
	reference, err := NewServer(Config{CacheSize: -1, DefaultTimeout: -1})
	if err != nil {
		return nil, err
	}
	type expectation struct {
		body []byte // canonical JSON of the expected comparable response
		err  string // expected apiError message, when the request must fail
	}
	expected := make([]expectation, len(corpus))
	for i, sc := range corpus {
		resp, err := directResponse(ctx, reference, sc)
		if err != nil {
			expected[i] = expectation{err: err.Error()}
			continue
		}
		expected[i] = expectation{body: resp}
	}

	client := NewClient(baseURL)
	client.HTTPClient = &http.Client{Timeout: opts.Timeout}
	var (
		mu       sync.Mutex
		failures []string
		requests int
	)
	record := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(clientID int) {
			defer wg.Done()
			for round := 0; round < opts.Rounds; round++ {
				for i, sc := range corpus {
					if ctx.Err() != nil {
						return
					}
					got, err := issue(ctx, client, sc)
					mu.Lock()
					requests++
					mu.Unlock()
					if err != nil {
						if expected[i].err == "" {
							record("client %d %s: %v", clientID, sc.Name, err)
						}
						continue
					}
					if expected[i].err != "" {
						record("client %d %s: expected failure %q, got success", clientID, sc.Name, expected[i].err)
						continue
					}
					if !bytes.Equal(got, expected[i].body) {
						record("client %d %s: verdict diverges from one-shot path\n  got:  %s\n  want: %s",
							clientID, sc.Name, got, expected[i].body)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	stats, err := client.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("fetch /stats: %w", err)
	}
	return &LoadReport{
		Clients:    opts.Clients,
		Rounds:     opts.Rounds,
		Requests:   requests,
		Failures:   failures,
		Duration:   elapsed,
		DurationMS: elapsed.Milliseconds(),
		Stats:      *stats,
	}, nil
}

// DuplicateReport is the outcome of a duplicate-heavy load run.
type DuplicateReport struct {
	Clients   int `json:"clients"`
	Scenarios int `json:"scenarios"`
	Requests  int `json:"requests"`
	// Leaders / Coalesced are the server's coalescing counter deltas over
	// the run: certifications actually executed, and requests answered by
	// joining a concurrent leader's flight.
	Leaders   uint64 `json:"leaders"`
	Coalesced uint64 `json:"coalesced"`
	// CoalesceRate is Coalesced / (Leaders + Coalesced) over the run.
	CoalesceRate float64       `json:"coalesce_rate"`
	Failures     []string      `json:"failures,omitempty"`
	Duration     time.Duration `json:"-"`
	DurationMS   int64         `json:"duration_ms"`
	// Stats is the server's /stats snapshot after the run.
	Stats StatsSnapshot `json:"stats"`
}

// RunDuplicateLoad replays a duplicate-heavy workload: for every check
// scenario of the corpus, Clients clients fire the identical request
// concurrently behind a per-scenario start barrier, so the server sees a
// storm of duplicates per distinct key. Every response is verified
// bit-for-bit against the direct one-shot path, and the report carries
// the server's coalescing counter deltas: against a cold server, Leaders
// stays at most the number of distinct check identities (scenarios that
// differ only in the ignored batched bit, workers or timeout count once)
// — exactly one certification per distinct key, everything else
// coalesced or served from cache — and exceeding that is reported as a
// failure.
func RunDuplicateLoad(ctx context.Context, baseURL string, opts LoadOptions) (*DuplicateReport, error) {
	opts = opts.withDefaults()
	var scenarios []Scenario
	for _, sc := range append(Corpus(opts.Seed), opts.Extra...) {
		if sc.Check != nil {
			scenarios = append(scenarios, sc)
		}
	}

	reference, err := NewServer(Config{CacheSize: -1, DefaultTimeout: -1})
	if err != nil {
		return nil, err
	}
	expected := make([][]byte, len(scenarios))
	for i, sc := range scenarios {
		body, err := directResponse(ctx, reference, sc)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", sc.Name, err)
		}
		expected[i] = body
	}

	client := NewClient(baseURL)
	client.HTTPClient = &http.Client{Timeout: opts.Timeout}
	before, err := client.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("fetch /stats: %w", err)
	}

	var (
		mu       sync.Mutex
		failures []string
		requests int
	)
	record := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	start := time.Now()
	for i, sc := range scenarios {
		if ctx.Err() != nil {
			break
		}
		gate := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < opts.Clients; c++ {
			wg.Add(1)
			go func(clientID int) {
				defer wg.Done()
				<-gate
				got, err := issue(ctx, client, sc)
				mu.Lock()
				requests++
				mu.Unlock()
				if err != nil {
					record("client %d %s: %v", clientID, sc.Name, err)
					return
				}
				if !bytes.Equal(got, expected[i]) {
					record("client %d %s: verdict diverges from one-shot path\n  got:  %s\n  want: %s",
						clientID, sc.Name, got, expected[i])
				}
			}(c)
		}
		close(gate)
		wg.Wait()
	}
	elapsed := time.Since(start)

	after, err := client.Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("fetch /stats: %w", err)
	}
	leaders := after.Coalesce.Leaders - before.Coalesce.Leaders
	coalesced := after.Coalesce.Coalesced - before.Coalesce.Coalesced
	keys := map[string]bool{}
	for _, sc := range scenarios {
		id := *sc.Check
		id.Batched, id.Workers, id.TimeoutMS = false, 0, 0
		b, err := json.Marshal(id)
		if err != nil {
			return nil, err
		}
		keys[string(b)] = true
	}
	if int(leaders) > len(keys) {
		failures = append(failures, fmt.Sprintf(
			"%d certifications for %d distinct keys — duplicates slipped past the coalescer", leaders, len(keys)))
	}
	rep := &DuplicateReport{
		Clients:    opts.Clients,
		Scenarios:  len(scenarios),
		Requests:   requests,
		Leaders:    leaders,
		Coalesced:  coalesced,
		Failures:   failures,
		Duration:   elapsed,
		DurationMS: elapsed.Milliseconds(),
		Stats:      *after,
	}
	if total := leaders + coalesced; total > 0 {
		rep.CoalesceRate = float64(coalesced) / float64(total)
	}
	return rep, nil
}

// comparableCheck strips the transport-dependent flags — Cached, Stored,
// Coalesced — so cached, store-served, coalesced, and freshly computed
// responses compare equal exactly when the verdicts are bit-identical.
func comparableCheck(r *CheckResponse) *CheckResponse {
	cp := *r
	cp.Cached = false
	cp.Stored = false
	cp.Coalesced = false
	return &cp
}

// comparableDynamics strips the row-cache counters, which depend on
// scheduling above one worker (a first-improving scan may fill rows of
// endpoints past its winner), so responses compare equal exactly when the
// trajectories, final graphs and verdicts are bit-identical.
func comparableDynamics(r *DynamicsResponse) *DynamicsResponse {
	cp := *r
	cp.RowsRecomputed = 0
	cp.RowsInvalidated = 0
	return &cp
}

// directResponse computes a scenario's expected answer through the
// in-process one-shot path (no HTTP, no cache).
func directResponse(ctx context.Context, ref *Server, sc Scenario) ([]byte, error) {
	switch {
	case sc.Check != nil:
		resp, err := ref.Check(ctx, *sc.Check)
		if err != nil {
			return nil, err
		}
		return json.Marshal(comparableCheck(resp))
	case sc.Dynamics != nil:
		resp, err := ref.Dynamics(ctx, *sc.Dynamics)
		if err != nil {
			return nil, err
		}
		return json.Marshal(comparableDynamics(resp))
	default:
		return nil, fmt.Errorf("scenario %q has no request", sc.Name)
	}
}

// issue sends a scenario through the HTTP client and returns the
// canonical JSON of its comparable response.
func issue(ctx context.Context, client *Client, sc Scenario) ([]byte, error) {
	switch {
	case sc.Check != nil:
		resp, err := client.Check(ctx, *sc.Check)
		if err != nil {
			return nil, err
		}
		return json.Marshal(comparableCheck(resp))
	case sc.Dynamics != nil:
		resp, err := client.Dynamics(ctx, *sc.Dynamics)
		if err != nil {
			return nil, err
		}
		return json.Marshal(comparableDynamics(resp))
	default:
		return nil, fmt.Errorf("scenario %q has no request", sc.Name)
	}
}
