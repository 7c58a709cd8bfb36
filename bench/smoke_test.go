package main

import (
	"io"
	"regexp"
	"sort"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at smoke scale on two seeds, untraced and
// traced, and holds what each run emits against BENCHMARK.json: every
// end-to-end metric exactly once untraced, every per-layer metric exactly
// once traced, under well-formed names, with the declared units, and no
// failed operation. It also keeps the benchmark compiling against the
// internal APIs it pins.
func TestSmoke(t *testing.T) {
	spec, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	wantE2E := make(map[string]string)
	for _, m := range spec.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := make(map[string]string)
	for _, m := range spec.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	if len(wantE2E) != len(spec.EndToEnd) || len(wantLayer) != len(spec.PerLayer) {
		t.Error("BENCHMARK.json uses a metric name twice")
	}
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				out, err := runWorkload(runOptions{workload: w.name, seed: seed, seconds: 0.05, trace: traced, smoke: true}, io.Discard)
				if err != nil {
					t.Fatalf("%s seed %d traced %v: %v", w.name, seed, traced, err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("%s seed %d traced %v: correct=%v, %d of %d operations failed",
						w.name, seed, traced, out.Correct, out.Failed, out.Attempted)
				}
				want := wantE2E
				if traced {
					want = wantLayer
				}
				checkMetrics(t, w.name, out.Metrics, want)
			}
		}
	}
}

func checkMetrics(t *testing.T, workload string, got metricSet, want map[string]string) {
	t.Helper()
	for name, m := range got {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q is malformed", workload, name)
		}
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s emits %q, which BENCHMARK.json does not list", workload, name)
		case unit != m.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", workload, name, m.Unit, unit)
		}
	}
	var missing []string
	for name := range want {
		if _, ok := got[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%s does not emit %v", workload, missing)
	}
}
