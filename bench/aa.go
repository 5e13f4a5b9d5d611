package main

import (
	"fmt"
	"math"
)

// runAA is the A/A mode: the suite's untraced pass 2n times, alternating
// between set A and set B so that drift of the machine lands on both, then
// per metric both medians, both spreads and the bound.  It fails if an
// end-to-end metric's medians differ by more than its bound, or an exact
// metric differs at all between any two runs — both are runs of one
// commit, so either is noise the benchmark must not have.
func runAA(n int, seed int64, seconds float64) error {
	printEnv(seed, seconds)
	type key struct{ workload, metric string }
	var order []key
	vals := map[key]*[2][]float64{}
	add := func(set int, k key, v float64) {
		if vals[k] == nil {
			vals[k] = &[2][]float64{}
			order = append(order, k)
		}
		vals[k][set] = append(vals[k][set], v)
	}
	failedOps := 0
	for i := 0; i < 2*n; i++ {
		set := i % 2
		fmt.Printf("run %d/%d (set %c)\n", i+1, 2*n, 'A'+rune(set))
		for _, name := range workloadNames {
			w := newWorkload(name)
			r, err := measureE2E(w, seed, passCfg{seconds: seconds}, setupRepeats)
			if err != nil {
				return err
			}
			for _, m := range r.metrics {
				add(set, key{name, m.name}, m.value)
			}
			if ew, ok := w.(*execWL); ok {
				// The exact per-layer counts ride along: they cost nothing.
				for b, bn := range backendNames {
					add(set, key{name, bn + ".sim_insns_per_call"}, ew.insnsPerCall(b))
				}
			}
			w.teardown()
			failedOps += r.pass.failed
		}
		tm, err := tierProbe(seed)
		if err != nil {
			return err
		}
		for _, m := range tm {
			add(set, key{"loop_long", m.name}, m.value)
		}
	}

	// The ungated rows that are exact per-layer counts (simulated
	// instructions, tier counters).
	counts := map[string]bool{}
	for _, d := range layerDefs() {
		counts[d.name] = d.unit == "count" || d.unit == "cycles"
	}
	fmt.Printf("\n%-16s %-28s %14s %14s %9s %9s %9s %8s\n", "workload", "metric", "median A", "median B", "spread A", "spread B", "|B-A|/A", "bound")
	bad := 0
	for _, k := range order {
		a, b := vals[k][0], vals[k][1]
		ma, mb := median(a), median(b)
		diff := 0.0
		if ma != 0 {
			diff = math.Abs(mb-ma) / math.Abs(ma)
		} else if mb != 0 {
			diff = math.Inf(1)
		}
		d, gated := suiteDef(k.metric)
		verdict, bound := "", "-"
		switch {
		case !gated && counts[k.metric], gated && d.exact:
			bound = "exact"
			all := append(append([]float64(nil), a...), b...)
			for _, v := range all {
				if v != all[0] {
					verdict = "FAIL: differs between runs"
				}
			}
		case gated:
			bound = fmt.Sprintf("%.3g", d.bound)
			if diff > d.bound {
				verdict = "FAIL: sets differ by more than the bound"
			}
		}
		if verdict != "" {
			bad++
		}
		fmt.Printf("%-16s %-28s %14.6g %14.6g %9.4f %9.4f %9.4f %8s %s\n",
			k.workload, k.metric, ma, mb, relSpread(a), relSpread(b), diff, bound, verdict)
	}
	if failedOps > 0 {
		return fmt.Errorf("%d operations failed or returned a wrong result", failedOps)
	}
	if bad > 0 {
		return fmt.Errorf("A/A: %d metrics disagree between two sets of runs of the same commit", bad)
	}
	fmt.Println("\nA/A: both sets agree within every bound; every exact metric is identical across all runs")
	return nil
}
