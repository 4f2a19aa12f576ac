package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// Short sizes keep each workload to a few seconds.
var shortCertify = certifySize{trees: []int{12, 16}, star: 16, torus: 4}

var short = map[string]workloadFunc{
	"certify":  func(cfg config, tr *tracer) (*outcome, error) { return certifyWorkload(cfg, tr, shortCertify) },
	"dynamics": func(cfg config, tr *tracer) (*outcome, error) { return dynamicsWorkload(cfg, tr, 16) },
	"serve":    func(cfg config, tr *tracer) (*outcome, error) { return serveWorkload(cfg, tr, true) },
}

func testConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return config{
		workload: workload, seed: 7, seconds: 1, trace: trace, workers: runtime.NumCPU(),
		root: root, tmp: t.TempDir(), digests: filepath.Join(t.TempDir(), "digests.json"),
	}
}

// lastLine decodes the result: the last line of standard output.
func lastLine(t *testing.T, out []byte) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

func TestShortRunsEmitEveryMetric(t *testing.T) {
	for _, name := range []string{"certify", "dynamics", "serve"} {
		for _, trace := range []bool{false, true} {
			t.Run(name+"/trace="+strconv.FormatBool(trace), func(t *testing.T) {
				var buf bytes.Buffer
				if _, err := measure(testConfig(t, name, trace), short[name], &buf); err != nil {
					t.Fatal(err)
				}
				r := lastLine(t, buf.Bytes())
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				table := endToEnd
				if trace {
					table = perLayer
				}
				if len(r.Metrics) != len(table) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(table))
				}
				for _, s := range table {
					m, ok := r.Metrics[s.Name]
					if !ok || m.Unit != s.Unit {
						t.Errorf("metric %s: got %+v (present %t), want unit %s", s.Name, m, ok, s.Unit)
					}
				}
			})
		}
	}
}

// A reference verdict that disagrees with the program must fail the run
// (correct=false, counted in failed), not show up as a metric.
func TestCorruptedDigestIsReportedAsFailure(t *testing.T) {
	cfg := testConfig(t, "certify", false)
	if err := recordDigests(cfg, shortCertify); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := measure(cfg, short["certify"], &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("run against freshly recorded digests failed: %+v", res)
	}

	all, err := readDigestFile(cfg.digests)
	if err != nil {
		t.Fatal(err)
	}
	seed := strconv.FormatInt(cfg.seed, 10)
	for id := range all[seed] {
		all[seed][id] = "0000000000000000"
		break
	}
	b, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.digests, b, 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	res, err = measure(cfg, short["certify"], &buf)
	if err != nil {
		t.Fatal(err)
	}
	r := lastLine(t, buf.Bytes())
	if res.Correct || r.Correct || r.Failed == 0 {
		t.Fatalf("corrupted digest not caught: %s", buf.Bytes())
	}
}

// BENCHMARK.json lists workloads this program runs (serve is run by hand,
// see README.md) and exactly the metrics it reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s listed but not run", w.Name)
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: listed %s/%s/%s, program reports %s/%s/%s", kind, i,
					got[i].Name, got[i].Unit, got[i].Better, want[i].Name, want[i].Unit, want[i].Better)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
