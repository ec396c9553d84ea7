package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
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

// TestSmoke runs every workload at -scale small, untraced and traced, and
// checks that each run is correct and emits exactly the metrics
// BENCHMARK.json declares — the traced grid-cold and report runs also
// check that the layer replay does the engine's work at one worker.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(body, &bench); err != nil {
		t.Fatal(err)
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bench.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range bench.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, conjbench runs %v", names, ours)
	}

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := &runConfig{workload: w.name, seed: pinnedSeed, seconds: 60, trace: traced, small: true,
					root: root, out: t.TempDir(), conns: runtime.NumCPU()}
				res, err := w.run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.mismatches) > 0 || res.failed > 0 || res.attempted == 0 {
					t.Fatalf("attempted %d, failed %d, wrong outputs: %s", res.attempted, res.failed,
						strings.Join(res.mismatches, "; "))
				}
				var out bytes.Buffer
				if err := emit(&out, traced, w.unmeasured, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the JSON result: %v", err)
				}
				if !line.Correct || line.Attempted != res.attempted {
					t.Errorf("result line %+v disagrees with the run", line)
				}
				want := declared[traced]
				for m, v := range line.Metrics {
					if unit, ok := want[m]; !ok {
						t.Errorf("emitted %s, which BENCHMARK.json does not declare", m)
					} else if unit != v.Unit {
						t.Errorf("%s: emitted unit %s, BENCHMARK.json says %s", m, v.Unit, unit)
					}
				}
				for m := range want {
					if _, ok := line.Metrics[m]; !ok {
						t.Errorf("BENCHMARK.json declares %s, which the run did not emit", m)
					}
				}
				if traced {
					if _, err := os.Stat(traceFile(cfg)); err != nil {
						t.Errorf("no trace file: %v", err)
					}
				}
			})
		}
	}
}
