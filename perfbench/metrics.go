package main

// metricSpec declares one reported metric. The tables below are the single
// source of the names, units and directions; BENCHMARK.json must list the
// same metrics (TestBenchmarkJSONMatchesTables pins that).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Layer is the module whose public calls the metric times ("" for the
	// end-to-end metrics).
	Layer string
	// Moves names the end-to-end metric and workload a change in this
	// metric should show up in.
	Moves string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. The contract asks every workload for every
// name, so each metric has one meaning per workload:
//
//	              certify            dynamics               serve
//	throughput    checks/s           applied moves/s        max_rps
//	p50/tail      per check          per trajectory         per request at the low rate
//	ok_ratio      1 − fail_ratio: correct results over attempts, on every workload
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher"},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher"},
	{Name: "p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tail_ms", Unit: "ms", Better: "lower"},
}

// perLayer are the traced run's metrics: each times calls into one module's
// public functions on the workload's own inputs.
var perLayer = []metricSpec{
	{"graphio.decode_us", "us", "lower", "graphio", "serve: p50_ms at low load; no change on certify or dynamics"},
	{"graphio.encode_us", "us", "lower", "graphio", "serve: p50_ms (every check re-encodes its graph as the exact key)"},
	{"graphio.request_bytes", "bytes", "lower", "graphio", "serve: p50_ms"},

	{"iso.cert_us", "us", "lower", "iso", "serve: p50_ms and throughput_per_s (every hit and miss pays it)"},
	{"iso.cert_tail_us", "us", "lower", "iso", "serve: tail_ms"},
	{"iso.exact_share", "ratio", "higher", "iso", "serve: explains iso.cert_us"},

	{"serve.hit_ratio", "ratio", "higher", "serve", "serve: tail_ms and throughput_per_s"},
	{"serve.store_hit_ratio", "ratio", "higher", "serve", "serve: tail_ms"},
	{"serve.coalesced_ratio", "ratio", "higher", "serve", "serve: throughput_per_s"},
	{"serve.store_appends", "count", "lower", "serve", "serve: tail_ms (each miss appends to the journal)"},
	{"serve.http_us", "us", "lower", "serve", "serve: p50_ms"},
	{"serve.wait_ms", "ms", "lower", "serve", "serve: tail_ms and throughput_per_s"},
	{"serve.store_replay_s", "s", "lower", "serve", "serve: setup_s"},

	{"core.check_ms.swap.sum", "ms", "lower", "core", "certify: throughput_per_s, tail_ms; serve: tail_ms via misses"},
	{"core.check_ms.swap.max", "ms", "lower", "core", "certify: throughput_per_s, tail_ms"},
	{"core.check_ms.greedy.sum", "ms", "lower", "core", "certify: throughput_per_s, tail_ms"},
	{"core.check_ms.greedy.max", "ms", "lower", "core", "certify: throughput_per_s, tail_ms"},
	{"core.check_ms.interests.sum", "ms", "lower", "core", "certify: throughput_per_s, tail_ms"},
	{"core.check_ms.interests.max", "ms", "lower", "core", "certify: throughput_per_s, tail_ms"},
	{"core.check_ms.budget.sum", "ms", "lower", "core", "certify: throughput_per_s, tail_ms"},
	{"core.check_ms.budget.max", "ms", "lower", "core", "certify: throughput_per_s, tail_ms"},
	{"core.check_ms.2nb.sum", "ms", "lower", "core", "certify: throughput_per_s, tail_ms"},
	{"core.check_ms.2nb.max", "ms", "lower", "core", "certify: throughput_per_s, tail_ms"},
	{"core.batched_share", "ratio", "higher", "core", "certify: explains throughput_per_s"},
	{"game.new_us", "us", "lower", "game", "certify: throughput_per_s"},
	{"game.sweep_ms", "ms", "lower", "game", "certify: throughput_per_s and tail_ms"},
	{"game.equilibrium_share", "ratio", "higher", "game", "certify: explains tail_ms (equilibria force full sweeps)"},

	{"pricing.scan_agent_us", "us", "lower", "pricing", "certify: throughput_per_s"},
	{"pricing.patched_below_ns", "ns", "lower", "pricing", "certify: throughput_per_s"},
	{"pricing.patched_below_bytes", "bytes", "lower", "pricing", "certify: explains pricing.patched_below_ns"},
	{"pricing.apply_us", "us", "lower", "pricing", "dynamics: throughput_per_s"},
	{"pricing.sync_us", "us", "lower", "pricing", "dynamics: throughput_per_s"},
	{"pricing.rows_per_sync", "count", "lower", "pricing", "dynamics: throughput_per_s"},
	{"pricing.rows_recomputed", "count", "lower", "pricing", "dynamics: throughput_per_s"},
	{"pricing.rows_invalidated", "count", "lower", "pricing", "dynamics: throughput_per_s"},

	{"graph.bfs_row_ns", "ns", "lower", "graph", "certify and dynamics: throughput_per_s; no change on serve hits"},
	{"graph.bfs_skip_vertex_ns", "ns", "lower", "graph", "certify and dynamics: throughput_per_s"},
	{"graph.bfs_row_bytes", "bytes", "lower", "graph", "certify and dynamics: explains graph.bfs_row_ns"},

	{"dynamics.move_ms", "ms", "lower", "dynamics", "dynamics: tail_ms and throughput_per_s"},
	{"dynamics.final_sweep_ms", "ms", "lower", "dynamics", "dynamics: tail_ms"},
	{"dynamics.moves", "count", "lower", "dynamics", "dynamics: tail_ms"},
	{"dynamics.sweeps", "count", "lower", "dynamics", "dynamics: tail_ms"},

	{"trace.overhead_ratio", "ratio", "lower", "", "none; traced over untraced time of the same operations"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill turns raw values into the result's metric map, in the units of the
// given table; a name missing from values is an error in the workload.
func fill(table []metricSpec, values map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(table))
	var missing []string
	for _, s := range table {
		v, ok := values[s.Name]
		if !ok {
			missing = append(missing, s.Name)
			continue
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	return out, missing
}
