package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode holds BENCHMARK.json and the metric tables in
// step.
func TestSpecMatchesCode(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code %s", got, want)
	}
	check := func(kind string, specDefs []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, code []metricDef) {
		if len(specDefs) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(specDefs), len(code))
			return
		}
		for i, d := range code {
			if specDefs[i].Name != d.name || specDefs[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i,
					specDefs[i].Name, specDefs[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestWorkloadsShort runs every workload, untraced and traced, through
// the command's own code path on a one-second phase, and checks the
// printed result: every named metric with its unit, no failed op, and
// a traced run whose spans nest.
func TestWorkloadsShort(t *testing.T) {
	spec := readSpec(t)
	work := t.TempDir()
	for _, w := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			t.Run(w+"/trace"+traced, func(t *testing.T) {
				var out, errOut bytes.Buffer
				code := run([]string{"--workload", w, "--seed", "3", "--seconds", "1",
					"--trace", traced, "--root", "..", "--work", work}, &out, &errOut)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if traced == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				if traced == "0" {
					for _, d := range want {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
					return
				}
				for _, name := range exercised[w] {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s exercises %s, but it reads %v", w, name, res.Metrics[name].Value)
					}
				}
				spans := readSpans(t, filepath.Join(work, fmt.Sprintf("spans-%s-seed3.jsonl", w)))
				if err := checkNesting(spans); err != nil {
					t.Error(err)
				}
				children := 0
				for _, s := range spans {
					if s.Parent != 0 {
						children++
					}
				}
				if children == 0 {
					t.Error("traced run recorded no child spans")
				}
			})
		}
	}
}

// exercised names, per workload, per-layer metrics that must be
// positive because the workload runs that layer.
var exercised = map[string][]string{
	"paper-pipeline": {"collect.campaign_ms", "adaptive.iterations_per_ms", "adaptive.iterations_per_op",
		"orderstat.curve_us", "core.simulate_ms", "pipeline.collect_share", "policy.table_ms",
		"fit.fitall_ms", "store.add_fsync_p50_ms", "store.digest_ms"},
	"serve-cold": {"serve.upload_json_p50_ms", "serve.upload_ndjson_p50_ms", "serve.fit_cold_p50_ms",
		"serve.predict_p50_ms", "serve.policy_cold_p50_ms", "peer.replicate_rpcs_per_op",
		"policy.computes_per_op", "fit.sketch_fitall_ms", "fleet.ops_per_s"},
	"serve-mixed": {"serve.fit_cached_p50_ms", "serve.policy_cached_p50_ms", "serve.predict_p50_ms",
		"serve.upload_json_p50_ms", "serve.reupload_p50_ms", "policy.cached_ratio", "peer.replicate_rpcs_per_op", "fleet.ops_per_s"},
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

func TestCheckNestingRejectsEscapingChild(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "op", Start: 10, End: 20},
		{ID: 2, Parent: 1, Op: 1, Name: "child", Start: 15, End: 25},
	}
	if checkNesting(spans) == nil {
		t.Error("a child ending after its parent passed the nesting check")
	}
	spans[1].End = 19
	if err := checkNesting(spans); err != nil {
		t.Error(err)
	}
}
