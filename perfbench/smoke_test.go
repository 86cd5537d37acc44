package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload briefly and checks that it passes
// its correctness checks and reports every end-to-end metric. Without
// -short it runs each traced run too.
func TestWorkloadsSmoke(t *testing.T) {
	traceDir = t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := newRun(w.name, 3, time.Second, false)
			if err := w.run(r); err != nil {
				t.Fatal(err)
			}
			requireCorrect(t, r)
			for _, d := range endToEnd {
				if !(r.values[d.name] > 0) {
					t.Errorf("%s = %v, want a measured positive value", d.name, r.values[d.name])
				}
			}
			if testing.Short() {
				return
			}
			r = newRun(w.name, 3, time.Second, true)
			if err := w.traced(r); err != nil {
				t.Fatal(err)
			}
			requireCorrect(t, r)
			for _, name := range []string{"cpu_busy_share", "tensor.gemm_share", "tensor.im2col_share"} {
				if !(r.values[name] > 0) {
					t.Errorf("traced %s = %v", name, r.values[name])
				}
			}
		})
	}
}

func requireCorrect(t *testing.T, r *run) {
	t.Helper()
	if !r.correct() || r.attempted < 1 || r.failed != 0 {
		var b strings.Builder
		for _, c := range r.checks {
			b.WriteString("\n" + c.name + ": " + c.detail)
		}
		t.Fatalf("correct=%v attempted=%d failed=%d%s", r.correct(), r.attempted, r.failed, b.String())
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), program has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the program reports %d/%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Better != endToEnd[i].better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, program has %+v", i, m, endToEnd[i])
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || m.Better != perLayer[i].better {
			t.Errorf("per_layer %d: %+v, program has %+v", i, m, perLayer[i])
		}
	}
}
