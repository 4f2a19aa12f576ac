package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/constructions"
	"repro/internal/iso"
	"repro/internal/serve"
	"repro/internal/treegen"
)

// The serve workload's open loop. Requests are sent on a fixed schedule
// whatever the server's state; each is timed from when it was due, so a
// stall counts against every request queued behind it. At most
// cfg.workers requests are in flight (one per connection).
const (
	lowRPS  = 20.0  // light load: p50_ms and tail_ms of the serve workload
	midRPS  = 30.0  // goodput reported at this rate
	highRPS = 40.0  // loaded: latency reported, queueing shows here first
	limitMS = 250.0 // tail latency limit behind throughput_per_s (max_rps)
	// ladderStep is the factor between successive rates of the max_rps
	// search; it tries at most ladderSteps rates from ladderStart times
	// the measured capacity.
	ladderStep  = 1.1
	ladderSteps = 5
	ladderStart = 0.7
)

// mixBlock is the request mix, sent in this order over and over: every
// block of len(mixBlock) consecutive slots holds 11 repeats, 5 fresh
// graphs, 2 store hits, a burst of cfg.workers identical copies and a
// dynamics run, spread out so that the queueing they cause is the same in
// every run. Only the graphs behind the slots depend on the seed.
var mixBlock = []string{
	"repeat", "fresh", "repeat", "store", "repeat", "fresh", "repeat", "burst", "repeat", "fresh",
	"repeat", "dynamics", "repeat", "fresh", "repeat", "store", "repeat", "fresh", "repeat", "repeat",
}

// requestWorkers is the pricing parallelism each request asks for. With
// one worker per request and one request per connection, the load never
// asks for more than nproc CPUs at once.
const requestWorkers = 1

// freshSizes are the vertex counts of the misses, in rotation; seven
// sizes against ten model × objective combinations cover every pairing.
var freshSizes = []int{16, 24, 32, 40, 48, 56, 64}

// repeatSizes are the vertex counts of the repeat pool, whose graphs are
// sent once before timing so that every later send is an LRU hit.
var repeatSizes = []int{8, 16, 32, 64, 128, 256}

// job is one scheduled request.
type job struct {
	kind  string
	check *serve.CheckRequest
	dyn   *serve.DynamicsRequest
	due   time.Duration // offset from the phase start
}

// key identifies a request for the reference comparison.
func (j job) key() (string, error) {
	var b []byte
	var err error
	if j.check != nil {
		b, err = json.Marshal(j.check)
	} else {
		b, err = json.Marshal(j.dyn)
	}
	return string(b), err
}

// sample is one completed request.
type sample struct {
	job
	latency time.Duration // due → response
	late    time.Duration // due → dispatched by the generator
	resp    []byte        // comparable response
	err     error
}

// serveMix draws the workload's requests from one seed.
type serveMix struct {
	rng       *rand.Rand
	repeats   []serve.CheckRequest
	atlas     []serve.CheckRequest
	nextAt    int // next unused atlas entry
	nextRep   int // next repeat, cycling through the pool
	nextFresh int // fresh graphs drawn so far
	slot      int // next slot of mixBlock
	short     bool
}

func newServeMix(cfg config, short bool) (*serveMix, error) {
	m := &serveMix{rng: rand.New(rand.NewSource(cfg.seed)), short: short}
	sizes := repeatSizes
	if short {
		sizes = sizes[:3]
	}
	// Four model × objective combinations per size, rotating through all
	// ten, each in both batched settings; tree shapes are fixed and the
	// seed relabels them. The pool interleaves the sizes, so the costly
	// n=256 hits are spread evenly over the cycle.
	shapes := rand.New(rand.NewSource(shapeSeed))
	combo := 0
	for k := 0; k < 4; k++ {
		for _, n := range sizes {
			name, obj := modelNames[combo/2%len(modelNames)], objectives[combo%2]
			combo++
			p := labeling(m.rng.Perm(n))
			dto, err := encode(p.graph(treegen.RandomTree(n, shapes)))
			if err != nil {
				return nil, err
			}
			pair := bothBatched(serve.CheckRequest{Graph: dto, Model: p.model(modelDTO(name, n, shapes)), Objective: obj, Workers: requestWorkers})
			m.repeats = append(m.repeats, pair[:]...)
		}
	}
	entries, err := readAtlas(filepath.Join(cfg.root, "testdata", "atlas", "atlas.jsonl"))
	if err != nil {
		return nil, err
	}
	m.rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	m.atlas = entries
	return m, nil
}

// readAtlas loads the atlas corpus as check requests: each is a store hit
// the first time it is sent.
func readAtlas(path string) ([]serve.CheckRequest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("atlas: %w", err)
	}
	defer f.Close()
	var out []serve.CheckRequest
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var e serve.StoreEntry
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("atlas: %w", err)
		}
		out = append(out, serve.CheckRequest{
			Graph:      serve.GraphDTO{Format: serve.FormatSparse6, Data: e.Sparse6},
			Model:      e.Model,
			Objective:  e.Objective,
			StableOnly: e.StableOnly,
			Batched:    e.Batched,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("atlas: %w", err)
	}
	if len(out) == 0 {
		return nil, errors.New("atlas: no entries")
	}
	return out, nil
}

// fresh draws a tree no earlier request carried, so it misses every cache.
// Sizes and model × objective combinations rotate, so every seed sends
// the same mix of misses; only the trees differ.
func (m *serveMix) fresh() (serve.CheckRequest, error) {
	sizes := freshSizes
	if m.short {
		sizes = []int{10, 14, 18}
	}
	k := m.nextFresh
	m.nextFresh++
	n := sizes[k%len(sizes)]
	name, obj := modelNames[k/2%len(modelNames)], objectives[k%2]
	dto, err := encode(treegen.RandomTree(n, m.rng))
	if err != nil {
		return serve.CheckRequest{}, err
	}
	return bothBatched(serve.CheckRequest{Graph: dto, Model: modelDTO(name, n, m.rng), Objective: obj, Workers: requestWorkers})[k/10%2], nil
}

// schedule lays out a phase of count requests at rate req/s.
func (m *serveMix) schedule(rate float64, count, burst int) ([]job, error) {
	var jobs []job
	gap := time.Duration(float64(time.Second) / rate)
	for i := 0; i < count; i++ {
		due := time.Duration(i) * gap
		kind := m.pick()
		switch kind {
		case "repeat":
			r := m.repeats[m.nextRep%len(m.repeats)]
			m.nextRep++
			jobs = append(jobs, job{kind: kind, check: &r, due: due})
		case "store":
			r := m.atlas[m.nextAt%len(m.atlas)]
			m.nextAt++
			jobs = append(jobs, job{kind: kind, check: &r, due: due})
		case "fresh", "burst":
			r, err := m.fresh()
			if err != nil {
				return nil, err
			}
			copies := 1
			if kind == "burst" {
				copies = burst
			}
			for c := 0; c < copies; c++ {
				jobs = append(jobs, job{kind: kind, check: &r, due: due})
			}
		case "dynamics":
			n := 16 + m.rng.Intn(9)
			g := constructions.Path(n)
			if m.rng.Intn(2) == 0 {
				g = treegen.RandomTree(n, m.rng)
			}
			dto, err := encode(g)
			if err != nil {
				return nil, err
			}
			name := dynamicsModels[m.rng.Intn(len(dynamicsModels))]
			pair := bothBatchedDynamics(serve.DynamicsRequest{
				Graph: dto, Model: modelDTO(name, n, m.rng), Objective: objectives[m.rng.Intn(2)],
				Policy: "best", MaxMoves: 50_000, Workers: requestWorkers,
			})
			r := pair[m.rng.Intn(2)]
			jobs = append(jobs, job{kind: kind, dyn: &r, due: due})
		}
	}
	return jobs, nil
}

// pick returns the next slot's kind.
func (m *serveMix) pick() string {
	k := mixBlock[m.slot%len(mixBlock)]
	m.slot++
	return k
}

// service is an in-process server listening on loopback.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *serve.Client
	dir    string
}

// newServerWithStore builds a server journaling to a fresh directory under
// cfg.tmp, seeded from the checked-in atlas. The journal is appended but
// never fsynced: a flush's latency belongs to the host's disk, and would
// put noise no code change can remove into every miss.
func newServerWithStore(cfg config) (*serve.Server, string, error) {
	dir, err := os.MkdirTemp(cfg.tmp, "store-")
	if err != nil {
		return nil, "", err
	}
	srv, err := serve.NewServer(serve.Config{
		StorePath: filepath.Join(dir, "verdicts.jsonl"),
		StoreSeed: filepath.Join(cfg.root, "testdata", "atlas"),
		// Negative: never fsync.
		StoreFsyncEvery: -1,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return srv, dir, nil
}

// setupService times serve.NewServer with the atlas replayed into the
// store reps times and keeps the last server, listening on loopback. The
// replay time is the set-up time minus that of a server without a store.
func setupService(cfg config, reps int) (svc *service, setupS, replayS float64, err error) {
	var setups, bare []float64
	var srv *serve.Server
	var dir string
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.Close()
			os.RemoveAll(dir)
		}
		t0 := time.Now()
		srv, dir, err = newServerWithStore(cfg)
		if err != nil {
			return nil, 0, 0, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		t0 = time.Now()
		plain, err := serve.NewServer(serve.Config{})
		if err != nil {
			srv.Close()
			os.RemoveAll(dir)
			return nil, 0, 0, err
		}
		bare = append(bare, time.Since(t0).Seconds())
		plain.Close()
	}
	svc, err = startService(srv, dir, cfg.workers)
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, 0, 0, err
	}
	return svc, median(setups), median(setups) - median(bare), nil
}

func startService(srv *serve.Server, dir string, workers int) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1), dir: dir}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = serve.NewClient("http://" + ln.Addr().String())
	s.client.HTTPClient = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true,
	}}
	return s, nil
}

// stop shuts the listener down, waits for it, and removes the journal.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.HTTPClient.CloseIdleConnections()
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	os.RemoveAll(s.dir)
	return err
}

// comparable strips the flags that only say how a verdict was served, the
// way serve.RunLoad compares responses.
func comparable(r *serve.CheckResponse) ([]byte, error) {
	cp := *r
	cp.Cached, cp.Stored, cp.Coalesced = false, false, false
	return json.Marshal(&cp)
}

// send issues one request and returns its comparable response.
func (s *service) send(ctx context.Context, j job) ([]byte, error) {
	if j.check != nil {
		r, err := s.client.Check(ctx, *j.check)
		if err != nil {
			return nil, err
		}
		return comparable(r)
	}
	r, err := s.client.Dynamics(ctx, *j.dyn)
	if err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// openLoop runs one phase: a generator dispatches each job at its due time
// into an unbounded queue, and workers send them. It returns when every
// job has completed.
func (s *service) openLoop(ctx context.Context, jobs []job, workers int, tr *tracer) []sample {
	out := make([]sample, len(jobs))
	queue := make(chan int, len(jobs)) // holds the whole phase, so dispatch never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				end := tr.begin("serve.http." + jobs[i].kind)
				out[i].resp, out[i].err = s.send(ctx, jobs[i])
				end()
				out[i].latency = time.Since(start) - jobs[i].due
			}
		}()
	}
	for i, j := range jobs {
		if d := j.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		out[i].job = j
		out[i].late = time.Since(start) - j.due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// closedLoop sends jobs back to back on every connection until span has
// passed, and returns the completed requests with the elapsed time. With
// the connections never idle, the completion rate is the server's
// capacity: the rate beyond which an open loop's backlog grows. The
// max_rps ladder starts just below it.
func (s *service) closedLoop(ctx context.Context, jobs []job, workers int, span time.Duration) ([]sample, time.Duration) {
	var mu sync.Mutex
	var out []sample
	next := 0
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < span {
				mu.Lock()
				if next == len(jobs) {
					mu.Unlock()
					return
				}
				j := jobs[next]
				next++
				mu.Unlock()
				t0 := time.Now()
				resp, err := s.send(ctx, j)
				smp := sample{job: j, latency: time.Since(t0), resp: resp, err: err}
				mu.Lock()
				out = append(out, smp)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// phaseStats summarises a phase.
type phaseStats struct {
	Rate      float64 `json:"rate"`
	Samples   int     `json:"samples"`
	P50       float64 `json:"p50_ms"`
	Tail      float64 `json:"tail_ms"`
	TailPct   float64 `json:"tail_pct"`
	Goodput   float64 `json:"goodput_rps"`
	LateP99   float64 `json:"gen_late_p99_ms"`
	Failed    int     `json:"failed"`
	WithinLim bool    `json:"within_limit"`
	// KindP50 is the median latency of each request kind.
	KindP50 map[string]float64 `json:"kind_p50_ms"`
}

func summarise(rate float64, span time.Duration, ss []sample) phaseStats {
	var lat, late latencies
	byKind := map[string]latencies{}
	ok := 0
	for _, s := range ss {
		byKind[s.kind] = append(byKind[s.kind], ms(s.latency))
		late = append(late, ms(s.late))
		if s.err != nil {
			// A failed request misses every latency limit.
			lat = append(lat, limitMS*1e3)
			continue
		}
		lat = append(lat, ms(s.latency))
		ok++
	}
	tail, pct := lat.tail()
	st := phaseStats{
		Rate: rate, Samples: len(ss), P50: lat.p50(), Tail: tail, TailPct: pct,
		Goodput: float64(ok) / span.Seconds(), LateP99: late.quantile(0.99), Failed: len(ss) - ok,
	}
	// A growing backlog shows as requests still unanswered when the phase
	// is over by more than the limit.
	done := 0
	for _, s := range ss {
		if s.err == nil && s.due+s.latency <= span+time.Duration(limitMS*float64(time.Millisecond)) {
			done++
		}
	}
	st.WithinLim = st.Tail <= limitMS && st.Failed == 0 && float64(done) >= 0.95*float64(len(ss))
	st.KindP50 = map[string]float64{}
	for k, l := range byKind {
		st.KindP50[k] = l.p50()
	}
	return st
}

func runServe(cfg config, tr *tracer) (*outcome, error) {
	return serveWorkload(cfg, tr, false)
}

func serveWorkload(cfg config, tr *tracer, short bool) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{values: map[string]float64{}, props: map[string]any{}}
	mix, err := newServeMix(cfg, short)
	if err != nil {
		return nil, err
	}

	svc, setupS, replayS, err := setupService(cfg, 5)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := svc.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping server:", err)
		}
	}()
	srv := svc.srv
	out.setupS = setupS
	out.values["serve.store_replay_s"] = replayS

	// Warm the LRU with the repeat pool, then time each repeat idle.
	idle := map[string]float64{}
	for _, r := range mix.repeats {
		j := job{kind: "repeat", check: &r}
		if _, err := svc.send(ctx, j); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	for _, r := range mix.repeats {
		j := job{kind: "repeat", check: &r}
		k, err := j.key()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := svc.send(ctx, j); err != nil {
			return nil, fmt.Errorf("idle pass: %w", err)
		}
		idle[k] = ms(time.Since(t0))
	}
	before := srv.Stats()

	// Phases, as shares of the time: the open loop at the low, mid and high
	// rates (40%, 5%, 10%), the connections kept busy to find the capacity
	// (20%), then the max_rps ladder from just below it (25%).
	share := func(f float64) time.Duration { return time.Duration(float64(cfg.duration()) * f) }
	var all []sample
	runPhase := func(rate float64, span time.Duration) (phaseStats, []sample, error) {
		count := max(1, int(rate*span.Seconds()))
		jobs, err := mix.schedule(rate, count, cfg.workers)
		if err != nil {
			return phaseStats{}, nil, err
		}
		ss := svc.openLoop(ctx, jobs, cfg.workers, tr)
		all = append(all, ss...)
		return summarise(rate, span, ss), ss, nil
	}
	low, _, err := runPhase(lowRPS, share(0.4))
	if err != nil {
		return nil, err
	}
	mid, _, err := runPhase(midRPS, share(0.05))
	if err != nil {
		return nil, err
	}
	high, highSamples, err := runPhase(highRPS, share(0.1))
	if err != nil {
		return nil, err
	}
	satJobs, err := mix.schedule(1, int(4*highRPS*share(0.2).Seconds())+1, cfg.workers)
	if err != nil {
		return nil, err
	}
	sat, satSpan := svc.closedLoop(ctx, satJobs, cfg.workers, share(0.2))
	all = append(all, sat...)
	capacity := 0
	for _, s := range sat {
		if s.err == nil {
			capacity++
		}
	}
	capacityRPS := float64(capacity) / satSpan.Seconds()
	ladder, maxRPS, err := maxRate(runPhase, ladderStart*capacityRPS, share(0.25/ladderSteps))
	if err != nil {
		return nil, err
	}
	after := srv.Stats()

	// Correctness: every response equals the direct, cache-less answer.
	ref, err := serve.NewServer(serve.Config{CacheSize: -1})
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	want := map[string][]byte{}
	checks := 0
	for _, s := range all {
		out.attempted++
		if s.check != nil {
			checks++
		}
		if s.err != nil {
			out.fail("%s request: %v", s.kind, s.err)
			continue
		}
		k, err := s.key()
		if err != nil {
			return nil, err
		}
		w, ok := want[k]
		if !ok {
			if w, err = direct(ctx, ref, s.job); err != nil {
				out.fail("%s reference: %v", s.kind, err)
				continue
			}
			want[k] = w
		}
		if string(w) != string(s.resp) {
			out.fail("%s response differs from the direct answer: got %s want %s", s.kind, s.resp, w)
		}
	}

	out.values["throughput_per_s"] = maxRPS
	out.values["p50_ms"] = low.P50
	out.values["tail_ms"] = low.Tail

	// /stats deltas over the timed phases.
	ratio := func(a, b uint64) float64 { return float64(a-b) / float64(max(checks, 1)) }
	out.values["serve.hit_ratio"] = ratio(after.Cache.Hits, before.Cache.Hits)
	out.values["serve.store_hit_ratio"] = ratio(store(after).Hits, store(before).Hits)
	out.values["serve.coalesced_ratio"] = ratio(after.Coalesce.Coalesced, before.Coalesce.Coalesced)
	out.values["serve.store_appends"] = float64(store(after).Appends - store(before).Appends)
	// wait: loaded latency of each high-rate repeat minus its idle latency.
	var wait latencies
	for _, s := range highSamples {
		if s.kind != "repeat" || s.err != nil {
			continue
		}
		k, _ := s.key()
		wait = append(wait, ms(s.latency)-idle[k])
	}
	out.values["serve.wait_ms"] = wait.p50()

	if err := serveProps(all, out.props); err != nil {
		return nil, err
	}
	out.props["phases"] = map[string]any{"low": low, "mid": mid, "high": high, "ladder": ladder}
	out.props["limit_ms"] = limitMS
	out.props["capacity_rps"] = capacityRPS
	out.props["goodput_mid_rps"] = mid.Goodput
	out.props["hit_share"] = out.values["serve.hit_ratio"]
	out.props["store_hit_share"] = out.values["serve.store_hit_ratio"]

	if tr != nil {
		if err := serveTrace(ctx, cfg, tr, svc, mix, idle, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func store(s serve.StatsSnapshot) serve.StoreSnapshot {
	if s.Store == nil {
		return serve.StoreSnapshot{}
	}
	return *s.Store
}

// direct answers a job through the in-process cache-less server.
func direct(ctx context.Context, ref *serve.Server, j job) ([]byte, error) {
	if j.check != nil {
		r, err := ref.Check(ctx, *j.check)
		if err != nil {
			return nil, err
		}
		return comparable(r)
	}
	r, err := ref.Dynamics(ctx, *j.dyn)
	if err != nil {
		return nil, err
	}
	return json.Marshal(r)
}

// maxRate searches for the highest rate whose tail stays within limitMS
// without failures or a growing backlog: from start it steps up by ladderStep while the limit
// holds, or down while it does not. Between the last rate within the limit
// and the first beyond it, the tail is interpolated linearly to where it
// crosses the limit, so the result moves smoothly with the server's speed
// rather than in whole ladder steps.
func maxRate(run func(rate float64, span time.Duration) (phaseStats, []sample, error), start float64, step time.Duration) ([]phaseStats, float64, error) {
	var ladder []phaseStats
	first, _, err := run(start, step)
	if err != nil {
		return nil, 0, err
	}
	ladder = append(ladder, first)
	factor := ladderStep
	if !first.WithinLim {
		factor = 1 / ladderStep
	}
	prev := first
	for len(ladder) < ladderSteps {
		st, _, err := run(prev.Rate*factor, step)
		if err != nil {
			return nil, 0, err
		}
		ladder = append(ladder, st)
		if st.WithinLim != prev.WithinLim {
			ok, bad := prev, st
			if st.WithinLim {
				ok, bad = st, prev
			}
			// Interpolate where the tail crossed the limit; a step that
			// failed only by backlog or errors gives no crossing inside.
			frac := 0.0
			if bad.Tail > limitMS {
				frac = max(0, min(1, (limitMS-ok.Tail)/(bad.Tail-ok.Tail)))
			}
			return ladder, ok.Rate + frac*(bad.Rate-ok.Rate), nil
		}
		prev = st
	}
	// The limit never changed within the ladder: report the last rate
	// within it (the ladder's top when every step held).
	best := 0.0
	for _, st := range ladder {
		if st.WithinLim {
			best = max(best, st.Rate)
		}
	}
	return ladder, best, nil
}

// serveProps records the request mix's input properties.
func serveProps(all []sample, props map[string]any) error {
	kinds := map[string]int{}
	ns := map[int]int{}
	exact, batched, checks := 0, 0, 0
	var late latencies
	for _, s := range all {
		kinds[s.kind]++
		late = append(late, ms(s.late))
		if s.check != nil && s.check.Batched || s.dyn != nil && s.dyn.Batched {
			batched++
		}
		if s.check == nil {
			continue
		}
		g, err := s.check.Graph.Decode()
		if err != nil {
			return err
		}
		checks++
		ns[g.N()]++
		if g.N() <= iso.MaxExactN {
			exact++
		}
	}
	props["mix"] = kinds
	props["n_mix"] = ns
	props["exact_iso_share"] = float64(exact) / float64(max(checks, 1))
	props["batched_share"] = float64(batched) / float64(max(len(all), 1))
	props["gen_late_p99_ms"] = late.quantile(0.99)
	props["gen_late_max_ms"] = late.quantile(1)
	return nil
}

// serveTrace adds the traced run's serve metrics: the HTTP cost of a hit
// (idle round trip minus in-process Server.Check), the tracing overhead
// on the repeat pool, and the layer probes over the mix's own requests.
func serveTrace(ctx context.Context, cfg config, tr *tracer, svc *service, mix *serveMix, idle map[string]float64, out *outcome) error {
	var httpUS latencies
	for _, r := range mix.repeats {
		j := job{kind: "repeat", check: &r}
		k, err := j.key()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := svc.srv.Check(ctx, r); err != nil {
			return fmt.Errorf("in-process check: %w", err)
		}
		httpUS = append(httpUS, idle[k]*1e3-us(time.Since(t0)))
	}
	out.values["serve.http_us"] = httpUS.p50()

	var plain, traced time.Duration
	for pass := 0; pass < 4; pass++ {
		var t *tracer
		if pass%2 == 1 {
			t = tr
		}
		t0 := time.Now()
		for _, r := range mix.repeats {
			j := job{kind: "repeat", check: &r}
			end := t.begin("serve.http.repeat")
			_, err := svc.send(ctx, j)
			end()
			if err != nil {
				return err
			}
		}
		if t == nil {
			plain += time.Since(t0)
		} else {
			traced += time.Since(t0)
		}
	}
	out.values["trace.overhead_ratio"] = float64(traced) / float64(plain)

	var dyns []serve.DynamicsRequest
	for _, name := range dynamicsModels {
		n := 24
		dto, err := encode(constructions.Path(n))
		if err != nil {
			return err
		}
		pair := bothBatchedDynamics(serve.DynamicsRequest{Graph: dto, Model: modelDTO(name, n, mix.rng), Objective: "sum", Policy: "best", MaxMoves: 50_000})
		dyns = append(dyns, pair[:]...)
	}
	return probeLayers(ctx, cfg, tr, mix.repeats, dyns, out.values)
}
