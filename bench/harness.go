package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one named measurement.
type metric struct {
	name, unit string
	value      float64
}

// sliceOut is what one timed slice did.
type sliceOut struct {
	ops, failed int
	// work is the slice's amount of the workload's headline unit:
	// generated instructions, programs, calls, simulated instructions or
	// correct responses.
	work float64
}

// workload is one of the six benchmark workloads.  A workload owns its
// inputs: setup generates them from the seed, checks every program against
// an independent reference and warms whatever the timed section expects
// warm.
type workload interface {
	name() string
	setup(seed int64) error
	// corpus is the SHA-256 of the generated inputs.
	corpus() string
	// slice runs reps units of work.  With a tracer it wraps each call
	// into a layer in a span.
	slice(reps int, tr *tracer) sliceOut
	// sliceUnits is the units of work in one slice: a constant, chosen so
	// that a slice takes about 25 ms on the machine the benchmark was sized
	// on.  Many short slices rather than few long ones: disturbances there
	// last tens of milliseconds to seconds, and the fastest tenth of 300
	// slices repeated about twice as well from run to run as the fastest
	// tenth of 60 (README, "Statistic").
	sliceUnits() int
	// procs is how many processors the workload keeps busy: the reference
	// kernel runs on as many.
	procs() int
	// prepare runs before every slice, outside the timed window, and is
	// told the reps the slice will run: it makes the slice's inputs and
	// finishes checks too heavy for the loop.  It returns failures.
	prepare(reps int) int
	teardown()
	// headline names the workload's host-time metric and converts a
	// nanoseconds-per-work-unit figure into it.
	headline() (name, unit string, fromNs func(ns float64) float64)
	// exact names the workload's generated-code count (code bytes or
	// simulated cycles per op) and returns its value: a property of the
	// generated code that every op of the timed loop is held to.
	exact() (name, unit string, value float64)
	// allocName names allocated bytes per work unit for this workload.
	allocName() string
	// shareLayers lists the layers whose share of the traced pass's
	// blocking time is reported for this workload.
	shareLayers() []string
	// layers derives the workload's per-layer metrics from a traced and an
	// untraced pass and its own probes.
	layers(lc *layerCtx) ([]metric, error)
}

// pass is one warm-up + timed section of one workload.
type pass struct {
	reps    int
	sliceNs []float64
	nsPer   []float64 // per slice: nanoseconds per unit of work
	refNs   []float64 // the reference kernel, timed before and after every slice
	ops     int
	failed  int
	work    float64
	// allocBytes and mallocs are MemStats.TotalAlloc / Mallocs deltas
	// summed over the timed slices only.
	allocBytes, mallocs uint64
	aggs                []map[string]*spanAgg
	tr                  *tracer
}

const (
	// A pass has at least minSlices slices however slow the machine, and
	// warms up with warmSlices of them.
	minSlices  = 60
	maxSlices  = 3000
	warmSlices = 8
)

// passCfg sizes one pass.
type passCfg struct {
	seconds float64
	traced  bool
	// quick is the brief pass a traced driver run gives the workloads it
	// was not asked about: slices a fifth the size, fewer spans kept for
	// the trace file.
	quick bool
}

// runPass warms the workload up, then times as many slices of the
// workload's fixed amount of work as fill cfg.seconds (at least
// minSlices).  The work per slice is a constant of the workload, not a
// calibration result, so whatever a slice boundary costs (a barrier between
// clients, inputs prepared just before, a cold cache) it costs the same in
// every run and on both sides of a comparison; only the number of slices
// adapts to the machine.
func runPass(w workload, cfg passCfg) (*pass, error) {
	var warm *tracer
	if cfg.traced {
		warm = newTracer(0)
	}
	reps := w.sliceUnits()
	if cfg.quick {
		reps = max(1, reps/5)
	}
	runtime.GC()
	fails := 0
	fastest := math.Inf(1)
	for i := 0; i < warmSlices; i++ {
		fails += w.prepare(reps)
		t0 := time.Now()
		out := w.slice(reps, warm)
		fastest = min(fastest, float64(time.Since(t0)))
		fails += out.failed
		warm.endSlice()
	}
	if fails > 0 {
		return nil, fmt.Errorf("%s: %d failures during warm-up", w.name(), fails)
	}
	slices := min(max(int(math.Round(cfg.seconds*1e9/fastest)), minSlices), maxSlices)
	p := &pass{reps: reps}
	if cfg.traced {
		keep := 20000
		if cfg.quick {
			keep = 2000
		}
		p.tr = newTracer(keep)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	for i := 0; i < slices; i++ {
		p.failed += w.prepare(reps)
		runtime.ReadMemStats(&m0)
		p.refNs = append(p.refNs, refKernel(w.procs()))
		t0 := time.Now()
		out := w.slice(reps, p.tr)
		d := float64(time.Since(t0))
		p.refNs = append(p.refNs, refKernel(w.procs()))
		runtime.ReadMemStats(&m1)
		p.sliceNs = append(p.sliceNs, d)
		if out.work > 0 {
			p.nsPer = append(p.nsPer, d/out.work)
		}
		p.ops += out.ops
		p.failed += out.failed
		p.work += out.work
		p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		p.mallocs += m1.Mallocs - m0.Mallocs
		if cfg.traced {
			p.aggs = append(p.aggs, p.tr.endSlice())
		}
	}
	p.failed += w.prepare(0)
	if len(p.nsPer) == 0 {
		return nil, fmt.Errorf("%s: no slice did any correct work", w.name())
	}
	return p, nil
}

// The reference kernel is a fixed piece of register-only arithmetic run on
// as many processors as the workload keeps busy, timed before and after
// every slice.  (Not on more: a kernel spread over both processors slows
// down when anything else runs on the second, which a single-threaded
// workload never notices, and the scaled time would then read too good.)  It measures the machine, not the program: on a shared box the
// same binary runs 5-25% faster or slower from one minute to the next, and
// a workload's time moves with the kernel's.  refSpeed scales a run's host
// times to the speed at which the kernel takes refNominalNs, which is what
// makes two runs minutes apart comparable.
const (
	refIters     = 250_000
	refNominalNs = 500_000
)

var refSink atomic.Uint64

func refKernel(procs int) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := min(procs, runtime.GOMAXPROCS(0)); i > 0; i-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(88172645463325252)
			for i := 0; i < refIters; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			refSink.Add(x)
		}()
	}
	wg.Wait()
	return float64(time.Since(t0))
}

// refSpeed is the machine's speed during the pass relative to nominal
// (1 = the reference kernel took refNominalNs; below 1 = slower), from the
// fastest tenth of the kernel's timings: the same statistic as the
// workload's own.
func (p *pass) refSpeed() float64 { return refNominalNs / fastestDecileMean(p.refNs) }

// nsPerWork is the pass's host-time statistic, as measured.
func (p *pass) nsPerWork() float64 { return fastestDecileMean(p.nsPer) }

// refNsPerWork is nsPerWork at the reference machine speed.
func (p *pass) refNsPerWork() float64 { return p.nsPerWork() * p.refSpeed() }

// spanStat returns, over the traced slices, the fastest-decile mean of a
// span name's total time per occurrence, in nanoseconds.
func (p *pass) spanStat(name string) float64 {
	var per []float64
	for _, agg := range p.aggs {
		if a := agg[name]; a != nil && a.count > 0 {
			per = append(per, float64(a.total)/float64(a.count))
		}
	}
	return fastestDecileMean(per)
}

// microBench times fn in twenty equal mini-slices filling about dur and
// returns the fastest-decile mean nanoseconds per call: the same statistic
// as a pass, for the layer probes.
func microBench(dur time.Duration, fn func()) float64 {
	unit := math.Inf(1)
	for start, n := time.Now(), 0; n < 3 || time.Since(start) < dur/10; n++ {
		t0 := time.Now()
		fn()
		if d := float64(time.Since(t0)); d < unit {
			unit = d
		}
	}
	const slices = 20
	reps := int(math.Round(float64(dur) / slices / unit))
	if reps < 1 {
		reps = 1
	}
	per := make([]float64, 0, slices)
	for i := 0; i < slices; i++ {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(reps))
	}
	return fastestDecileMean(per)
}

// setupTimed runs setup+teardown `times` times and leaves the workload set
// up; it returns the median set-up time in seconds.  Set-up is corpus
// generation, machine or server construction, reference checks and cache
// warm-up — everything before the first calibrating slice.
func setupTimed(w workload, seed int64, times int) (float64, error) {
	var secs []float64
	for i := 0; i < times; i++ {
		if i > 0 {
			w.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return 0, fmt.Errorf("%s: set-up: %w", w.name(), err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// layerCtx is what a workload's layers method works from.
type layerCtx struct {
	seed             int64
	untraced, traced *pass
	// probe is the time budget of one micro-measurement.
	probe time.Duration
}
