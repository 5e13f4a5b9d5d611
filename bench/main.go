// Command bench is the repository's benchmark: six workloads from code
// emission to HTTP serving, every output checked against an independent
// reference, end-to-end metrics from an untraced pass and per-layer
// metrics from a second, traced pass.  See README.md in this directory.
//
//	go run ./bench -seed 1                  the whole suite, both passes
//	go run ./bench -aa 5                    A/A: two sets of five suite runs
//	go run ./bench --workload emit --seed 3 --seconds 10 --trace 0
//	                                        one workload, one JSON result line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

const outDir = "bench/out"

// Sizing of the passes.  In a traced driver run the other five workloads run a short
// pass each, so that every per-layer metric is measured in every run.
const (
	setupRepeats = 15
	miniSeconds  = 0.45
	fullProbe    = 100 * time.Millisecond
	miniProbe    = 20 * time.Millisecond
)

func main() {
	seed := flag.Int64("seed", 1, "seed every workload generates its inputs from")
	seconds := flag.Float64("seconds", 6, "timed seconds per workload per pass")
	one := flag.String("workload", "", "run one workload and print one JSON result line (the BENCHMARK.json contract)")
	traceMode := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	aa := flag.Int("aa", 0, "A/A mode: run the suite in two sets of N and compare them")
	flag.Parse()

	// The load shape is fixed: at most two processors, every gate the
	// program has for observing itself off.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	var err error
	switch {
	case *one != "":
		err = runDriver(*one, *seed, *seconds, *traceMode == 1)
	case *aa > 0:
		err = runAA(*aa, *seed, *seconds)
	default:
		err = runSuite(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// printEnv records what the numbers were taken on.
func printEnv(seed int64, seconds float64) {
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), seed, seconds)
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// e2eRun is one workload's untraced result.
type e2eRun struct {
	name    string
	setupS  float64
	corpus  string
	pass    *pass
	metrics []metric // under the suite's per-workload names
	// refNs and exactCount are the same headline (at the reference machine
	// speed) and count under the driver's workload-independent names.
	refNs, exactCount float64
}

// measureE2E sets the workload up (setupRepeats times, for the median),
// runs the untraced pass and derives the end-to-end metrics.  The workload
// is left set up.
func measureE2E(w workload, seed int64, cfg passCfg, setups int) (*e2eRun, error) {
	setupS, err := setupTimed(w, seed, setups)
	if err != nil {
		return nil, err
	}
	p, err := runPass(w, cfg)
	if err != nil {
		return nil, err
	}
	r := &e2eRun{name: w.name(), setupS: setupS, corpus: w.corpus(), pass: p, refNs: p.refNsPerWork()}
	hName, hUnit, fromNs := w.headline()
	xName, xUnit, xVal := w.exact()
	r.exactCount = xVal
	r.metrics = []metric{
		{"setup_s", "s", setupS},
		{hName, hUnit, fromNs(p.nsPerWork())},
		{"ref_ns_per_op", "ns", r.refNs},
		{w.allocName(), "B", float64(p.allocBytes) / p.work},
		{xName, xUnit, xVal},
		{"fail_share", "share", float64(p.failed) / float64(p.ops)},
	}
	return r, nil
}

func (r *e2eRun) print(w workload) {
	p := r.pass
	_, hUnit, fromNs := w.headline()
	fmt.Printf("\n[%s] untraced: %d slices x %d units, %.2f s timed\n", r.name, len(p.sliceNs), p.reps, sum(p.sliceNs)/1e9)
	fmt.Printf("  corpus_sha256  %s\n", r.corpus)
	fmt.Printf("  ops_attempted  %d\n  ops_failed     %d\n", p.ops, p.failed)
	for _, m := range r.metrics {
		fmt.Printf("  %-28s %16.6g %s\n", m.name, m.value, m.unit)
	}
	// Spread of the slices beside the statistic: printed, not gated.
	fmt.Printf("  %-28s %16.6g %s (slice median; IQR %.3g; statistic = mean of the fastest tenth)\n",
		"  slice spread", fromNs(median(p.nsPer)), hUnit, iqr(mapf(p.nsPer, fromNs)))
	fmt.Printf("  %-28s %16.6g (reference kernel: 1 = nominal machine speed)\n", "  ref_speed", p.refSpeed())
}

func mapf(v []float64, f func(float64) float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = f(x)
	}
	return out
}

// measureLayers runs the traced pass on a set-up workload and derives its
// per-layer metrics.
func measureLayers(w workload, seed int64, untraced *pass, cfg passCfg, probe time.Duration) ([]metric, *pass, error) {
	cfg.traced = true
	traced, err := runPass(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	ms, err := w.layers(&layerCtx{seed: seed, untraced: untraced, traced: traced, probe: probe})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: layers: %w", w.name(), err)
	}
	ms = append(ms,
		metric{"alloc_bytes_per_op." + w.name(), "B", float64(untraced.allocBytes) / untraced.work},
		metric{"bench.trace_overhead_share." + w.name(), "share", traced.refNsPerWork()/untraced.refNsPerWork() - 1})
	shares := layerShares(traced.aggs)
	for _, l := range w.shareLayers() {
		ms = append(ms, metric{fmt.Sprintf("share.%s.%s", w.name(), l), "share", shares[l]})
	}
	return ms, traced, nil
}

func printLayers(w workload, ms []metric, traced *pass) {
	fmt.Printf("\n[%s] traced: %d slices x %d units; layer shares of blocking time:", w.name(), len(traced.sliceNs), traced.reps)
	shares := layerShares(traced.aggs)
	for _, l := range allLayers {
		if s, ok := shares[l]; ok {
			fmt.Printf(" %s %.1f%%", l, 100*s)
		}
	}
	fmt.Println()
	for _, m := range ms {
		fmt.Printf("  %-40s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

// runSuite is `go run ./bench`: every workload untraced, then every
// workload traced.
func runSuite(seed int64, seconds float64) error {
	printEnv(seed, seconds)
	failed := 0
	untraced := map[string]*pass{}
	fmt.Println("\n== pass 1: end-to-end metrics, tracing off ==")
	for _, name := range workloadNames {
		w := newWorkload(name)
		r, err := measureE2E(w, seed, passCfg{seconds: seconds}, setupRepeats)
		if err != nil {
			return err
		}
		w.teardown()
		r.print(w)
		untraced[name] = r.pass
		failed += r.pass.failed
	}
	fmt.Println("\n== pass 2: per-layer metrics, benchmark-owned spans on ==")
	var tf traceFile
	for pid, name := range workloadNames {
		w := newWorkload(name)
		if err := w.setup(seed); err != nil {
			return err
		}
		ms, traced, err := measureLayers(w, seed, untraced[name], passCfg{seconds: seconds}, fullProbe)
		if err != nil {
			return err
		}
		w.teardown()
		printLayers(w, ms, traced)
		tf.add(pid+1, name, traced.tr)
		failed += traced.failed
	}
	path := filepath.Join(outDir, "trace.json")
	if err := tf.write(path); err != nil {
		return err
	}
	fmt.Printf("\ntrace written to %s (%d events)\n", path, len(tf.events))
	if failed > 0 {
		return fmt.Errorf("%d operations failed or returned a wrong result", failed)
	}
	return nil
}

// result is the driver contract's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runDriver runs one workload for BENCHMARK.json's driver and prints one
// JSON object as the last line.
func runDriver(name string, seed int64, seconds float64, traced bool) error {
	if newWorkload(name) == nil {
		return fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	printEnv(seed, seconds)
	res := result{Metrics: map[string]resultValue{}}
	if !traced {
		w := newWorkload(name)
		r, err := measureE2E(w, seed, passCfg{seconds: seconds}, setupRepeats)
		if err != nil {
			return err
		}
		w.teardown()
		r.print(w)
		res.Attempted, res.Failed = r.pass.ops, r.pass.failed
		for i, v := range []float64{r.setupS, r.refNs, r.exactCount} {
			res.Metrics[driverE2E[i].name] = resultValue{v, driverE2E[i].unit}
		}
		return finish(res)
	}

	// A traced run measures every layer: the named workload at full
	// length, the other five briefly, so no per-layer metric is ever
	// reported unmeasured.
	var tf traceFile
	for pid, n := range workloadNames {
		cfg, probe := passCfg{seconds: miniSeconds / 3, quick: true}, miniProbe
		if n == name {
			cfg, probe = passCfg{seconds: seconds / 3}, fullProbe
		}
		w := newWorkload(n)
		r, err := measureE2E(w, seed, cfg, 1)
		if err != nil {
			return err
		}
		cfg.seconds *= 2
		ms, tp, err := measureLayers(w, seed, r.pass, cfg, probe)
		if err != nil {
			return err
		}
		w.teardown()
		printLayers(w, ms, tp)
		tf.add(pid+1, n, tp.tr)
		res.Failed += r.pass.failed + tp.failed
		if n == name {
			res.Attempted = r.pass.ops + tp.ops
		}
		for _, m := range ms {
			res.Metrics[m.name] = resultValue{m.value, m.unit}
		}
	}
	if err := tf.write(filepath.Join(outDir, "trace.json")); err != nil {
		return err
	}
	// The printed set must be exactly the declared set.
	defs := layerDefs()
	for _, d := range defs {
		if _, ok := res.Metrics[d.name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("measured %d per-layer metrics, declared %d", len(res.Metrics), len(defs))
	}
	return finish(res)
}

func finish(res result) error {
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d operations failed or returned a wrong result", res.Failed)
	}
	return nil
}
