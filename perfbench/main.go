// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload from a seed, measures it for a fixed time, checks every output,
// and prints the metrics as the last line of standard output:
//
//	perfbench -workload certify -seed 1 -seconds 50 -trace 0
//
// Workloads: certify (core.CheckCtx over equilibria and near-misses),
// dynamics (dynamics.RunSpecCtx trajectories) and serve (an open loop over
// HTTP against an in-process serve.Server). With -trace 1 the run records
// spans around each public call it makes and reports the per-layer metrics
// instead of the end-to-end ones. perfbench/run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int    // pricing parallelism and client connections: nproc
	root     string // repository checkout
	tmp      string // scratch directory inside the checkout
	digests  string // checked-in certify verdict digests
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// outcome is what a workload reports back to main.
type outcome struct {
	setupS    float64
	attempted int
	failures  []string
	values    map[string]float64 // metric name → value
	props     map[string]any     // workload input properties
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

type workloadFunc func(cfg config, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"certify":  runCertify,
	"dynamics": runDynamics,
	"serve":    runServe,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{workers: runtime.NumCPU()}
	fs.StringVar(&cfg.workload, "workload", "", "workload: certify, dynamics or serve")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are built from")
	fs.Float64Var(&cfg.seconds, "seconds", 50, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout (holds testdata/atlas)")
	fs.StringVar(&cfg.tmp, "tmp", "", "scratch directory (default <root>/.bench_build/tmp)")
	fs.StringVar(&cfg.digests, "digests", "", "certify verdict digests (default <root>/perfbench/testdata/certify_digests.json)")
	writeDigests := fs.Bool("write-digests", false, "record the certify digests for -seed instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.tmp == "" {
		cfg.tmp = filepath.Join(cfg.root, ".bench_build", "tmp")
	}
	if cfg.digests == "" {
		cfg.digests = filepath.Join(cfg.root, "perfbench", "testdata", "certify_digests.json")
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *writeDigests {
		if err := recordDigests(cfg, fullCertify); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	res, err := measure(cfg, fn, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and writes the properties line and the result
// line to w. A run whose outputs are wrong still reports, with
// correct=false; an error means no result could be produced at all.
func measure(cfg config, fn workloadFunc, w io.Writer) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out, err := fn(cfg, tr)
	if err != nil {
		return nil, err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	failed := len(out.failures)
	if failed > out.attempted {
		out.attempted = failed
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "perfbench: wrong output:", f)
	}
	failRatio := float64(failed) / float64(max(out.attempted, 1))
	values := out.values
	values["setup_s"] = out.setupS
	values["rss_peak_mb"] = peak
	values["ok_ratio"] = 1 - failRatio
	table := endToEnd
	if cfg.trace {
		table = perLayer
		path := filepath.Join(cfg.tmp, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.dump(path); err != nil {
			return nil, err
		}
		out.props["spans_file"] = path
	}
	metrics, missing := fill(table, values)
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload %s reported no value for %s", cfg.workload, strings.Join(missing, ", "))
	}
	out.props["workload"] = cfg.workload
	out.props["seed"] = cfg.seed
	out.props["fail_ratio"] = failRatio
	res := &result{Correct: failed == 0, Attempted: out.attempted, Failed: failed, Metrics: metrics}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"properties": out.props}); err != nil {
		return nil, err
	}
	if err := enc.Encode(res); err != nil {
		return nil, err
	}
	return res, nil
}
