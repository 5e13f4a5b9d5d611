package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/jit"
)

// corpusOf sets a workload up just far enough to fingerprint its inputs.
func corpusOf(t *testing.T, name string, seed int64) string {
	t.Helper()
	w := newWorkload(name)
	if err := w.setup(seed); err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	defer w.teardown()
	return w.corpus()
}

func TestSameSeedSameCorpusDifferentSeedDifferentCorpus(t *testing.T) {
	for _, name := range workloadNames {
		a, again, b := corpusOf(t, name, 11), corpusOf(t, name, 11), corpusOf(t, name, 12)
		if a != again {
			t.Errorf("%s: seed 11 gave corpus %s, then %s", name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 11 and 12 gave the same corpus %s", name, a)
		}
	}
}

// The exact metrics are compared across runs with different seeds, so they
// must be properties of the generators' shapes.
func TestExactMetricsDoNotDependOnTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		var first float64
		for seed := int64(1); seed <= 3; seed++ {
			w := newWorkload(name)
			if err := w.setup(seed); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			_, _, v := w.exact()
			w.teardown()
			if v == 0 {
				t.Errorf("%s: exact metric is 0", name)
			}
			if seed == 1 {
				first = v
			} else if v != first {
				t.Errorf("%s: exact metric %v with seed %d, %v with seed 1", name, v, seed, first)
			}
		}
	}
}

func TestGeneratedBytecodeValidatesAndTinycSourcesAreDistinct(t *testing.T) {
	rng := newRNG(5, "t")
	for i := 0; i < 2*jitTemplates; i++ {
		f := genJitFunc(rng, i)
		if _, err := f.Validate(); err != nil {
			t.Errorf("jit template %d: %v", i%jitTemplates, err)
		}
		if _, _, err := jit.Interp(f, 9); err != nil {
			t.Errorf("jit template %d: %v", i%jitTemplates, err)
		}
	}
	f, pivot, a, b := genBiasedLoop(rng)
	for _, c := range []struct{ x, want int32 }{{pivot - 1, 100 * a}, {pivot, 100 * b}} {
		if got, _, err := jit.Interp(f, c.x); err != nil || got != c.want {
			t.Errorf("biased loop(%d) = %d, %v; want %d", c.x, got, err, c.want)
		}
	}
	// Distinct indices give distinct sources, and the closed form agrees
	// with the tinyc interpreter on each.
	seen := map[string]int{}
	for idx := 0; idx < 5000; idx++ {
		p := tinycAt(idx * 37)
		src := p.source()
		if prev, dup := seen[src]; dup {
			t.Fatalf("indices %d and %d give the same source", prev, idx*37)
		}
		seen[src] = idx * 37
		if idx%10 != 0 {
			continue
		}
		ref, err := tinycReference(src, tinycArg)
		if err != nil || ref != p.eval(tinycArg) {
			t.Fatalf("index %d: closed form %d, interpreter %d (%v): %s", idx*37, p.eval(tinycArg), ref, err, src)
		}
	}
}

// BENCHMARK.json declares what the driver will ask for; the program must
// print exactly that.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, program has %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), program has %q", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	if len(bj.EndToEnd) != len(driverE2E) {
		t.Fatalf("%d end-to-end metrics declared, program prints %d", len(bj.EndToEnd), len(driverE2E))
	}
	for i, m := range bj.EndToEnd {
		d := driverE2E[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	defs := layerDefs()
	if len(bj.PerLayer) != len(defs) {
		t.Fatalf("%d per-layer metrics declared, program prints %d", len(bj.PerLayer), len(defs))
	}
	if len(defs) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(defs))
	}
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		d := defs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
		if seen[m.Name] || len(m.Name) > 64 {
			t.Errorf("per_layer name %q repeated or too long", m.Name)
		}
		seen[m.Name] = true
	}
}
