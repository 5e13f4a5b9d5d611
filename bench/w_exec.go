package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/mem"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// execWL is the two warm-call workloads.  call_hot calls installed leaf
// functions of at most 16 simulated instructions, so the per-call fixed
// cost (lock, argument marshalling, statistics, the two trace gates)
// dominates; loop_long calls loops of at least 50k simulated instructions,
// so per-instruction dispatch dominates.  A fix to one cost must not move
// the other workload.
type execWL struct {
	long bool
	ro   []int32
	ts   []*target
	fns  [][]*hotFn // [backend][function]
	hash string
}

type hotFn struct {
	fn   *core.Func
	args []core.Value
	want core.Value
	// cycles and insns are what the switch engine spent on this call at
	// set-up; every timed call must spend exactly the same.
	cycles, insns uint64
}

func (w *execWL) name() string {
	if w.long {
		return "loop_long"
	}
	return "call_hot"
}
func (w *execWL) corpus() string { return w.hash }
func (w *execWL) procs() int     { return 1 }
func (w *execWL) sliceUnits() int {
	if w.long {
		return 11
	}
	return 3000
}
func (w *execWL) prepare(int) int { return 0 }
func (w *execWL) teardown()       { *w = execWL{long: w.long} }

func (w *execWL) headline() (string, string, func(float64) float64) {
	perSec := func(ns float64) float64 { return 1e9 / ns }
	if w.long {
		return "sim_insns_per_s", "1/s", perSec
	}
	return "calls_per_s", "1/s", perSec
}

func (w *execWL) allocName() string     { return "call_alloc_bytes_per_call" }
func (w *execWL) shareLayers() []string { return nil }

func (w *execWL) exact() (string, string, float64) {
	var sum uint64
	n := 0
	for _, fs := range w.fns {
		for _, f := range fs {
			sum += f.cycles
			n++
		}
	}
	return "sim_cycles_per_call", "cycles", float64(sum) / float64(n)
}

func (w *execWL) setup(seed int64) error {
	stream, nfn, gen := "call_hot", 8, genLeaf
	if w.long {
		stream, nfn, gen = "loop_long", 2, genLoop
	}
	rng := newRNG(seed, stream)
	w.ro = genRO(newRNG(seed, stream+"/ro"))
	var err error
	if w.ts, err = newTargets(w.ro); err != nil {
		return err
	}
	var h corpusHasher
	h.add("%v", w.ro)
	w.fns = make([][]*hotFn, len(w.ts))
	for i := 0; i < nfn; i++ {
		p := gen(rng, i)
		n := int32(rng.Intn(1 << 16))
		h.add("%d|%s", n, p.vasmSource())
		for b, tg := range w.ts {
			fn, err := p.emit(tg.asm)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", tg.name, p.name, err)
			}
			if err := tg.m.Install(fn); err != nil {
				return err
			}
			want, st, err := tg.refCall(p, fn, w.ro, n)
			if err != nil {
				return err
			}
			w.fns[b] = append(w.fns[b], &hotFn{fn: fn, args: tg.args(n), want: core.I(want), cycles: st.Cycles, insns: st.Insns})
		}
	}
	w.hash = h.sum()
	return nil
}

func (w *execWL) slice(reps int, tr *tracer) sliceOut {
	var out sliceOut
	ctx := context.Background()
	for r := 0; r < reps; r++ {
		for j := range w.fns[0] {
			for b, tg := range w.ts {
				f := w.fns[b][j]
				s := tr.begin(tg.callSpan, layerExec, noSpan, 0, uint64(out.ops))
				v, st, err := tg.m.CallWithStats(ctx, core.CallOpts{}, f.fn, f.args...)
				tr.end(s)
				out.ops++
				if err != nil || v != f.want || st.Cycles != f.cycles || st.Insns != f.insns {
					out.failed++
					continue
				}
				if w.long {
					out.work += float64(f.insns)
				} else {
					out.work++
				}
			}
		}
	}
	return out
}

// insnsPerCall is the mean simulated instructions one call retires on
// backend b.
func (w *execWL) insnsPerCall(b int) float64 {
	var insns uint64
	for _, f := range w.fns[b] {
		insns += f.insns
	}
	return float64(insns) / float64(len(w.fns[b]))
}

// perBackend times the rotation one backend at a time: nanoseconds per
// call and simulated instructions per call.
func (w *execWL) perBackend(dur time.Duration, engine core.Engine) (nsPerCall, insnsPerCall []float64, err error) {
	ctx := context.Background()
	for b, tg := range w.ts {
		if err := tg.m.SetEngine(engine); err != nil {
			return nil, nil, err
		}
		var cerr error
		ns := microBench(dur, func() {
			for _, f := range w.fns[b] {
				if v, _, err := tg.m.CallWithStats(ctx, core.CallOpts{}, f.fn, f.args...); err != nil || v != f.want {
					cerr = fmt.Errorf("%s/%s under %v: %v (err %v)", tg.name, f.fn.Name, engine, v, err)
				}
			}
		})
		if err := tg.m.SetEngine(core.EngineThreaded); err != nil {
			return nil, nil, err
		}
		if cerr != nil {
			return nil, nil, cerr
		}
		nsPerCall = append(nsPerCall, ns/float64(len(w.fns[b])))
		insnsPerCall = append(insnsPerCall, w.insnsPerCall(b))
	}
	return nsPerCall, insnsPerCall, nil
}

func (w *execWL) layers(lc *layerCtx) ([]metric, error) {
	if w.long {
		// loop_long's own layer numbers: per backend, the traced calls'
		// time per simulated instruction, and the tier counts.
		var ms []metric
		for b, name := range backendNames {
			perCall := w.insnsPerCall(b)
			ms = append(ms,
				metric{name + ".loop.sim_insns_per_call", "count", perCall},
				metric{name + ".loop.ns_per_sim_insn", "ns", lc.traced.spanStat("call."+name) / perCall})
		}
		tm, err := tierProbe(lc.seed)
		if err != nil {
			return nil, err
		}
		return append(ms, tm...), nil
	}

	// The two-point fit: this workload's short functions and a briefly
	// timed loop_long sibling set up from the same seed.
	long := &execWL{long: true}
	if err := long.setup(lc.seed); err != nil {
		return nil, err
	}
	defer long.teardown()
	sNs, sInsns, err := w.perBackend(lc.probe, core.EngineThreaded)
	if err != nil {
		return nil, err
	}
	lNs, lInsns, err := long.perBackend(lc.probe, core.EngineThreaded)
	if err != nil {
		return nil, err
	}
	swNs, _, err := long.perBackend(lc.probe, core.EngineSwitch)
	if err != nil {
		return nil, err
	}
	var ms []metric
	var fixedSum, thrSum, swSum float64
	for b, name := range backendNames {
		fixed, per := twoPointFit(sInsns[b], sNs[b], lInsns[b], lNs[b])
		swPer := (swNs[b] - fixed) / lInsns[b]
		ms = append(ms,
			metric{name + ".threaded_ns_per_sim_insn", "ns", per},
			metric{name + ".switch_ns_per_sim_insn", "ns", swPer},
			metric{name + ".sim_insns_per_call", "count", sInsns[b]})
		fixedSum += fixed
		thrSum += per
		swSum += swPer
	}
	n := float64(len(backendNames))
	fixed := fixedSum / n
	ms = append(ms,
		metric{"core.call_fixed_ns", "ns", fixed},
		metric{"core.call_fixed_share_call_hot", "share", fixed / mean(sNs)},
		metric{"core.call_fixed_share_loop_long", "share", fixed / mean(lNs)},
		metric{"exec.threaded_vs_switch_ratio", "ratio", swSum / thrSum})

	im, err := interpProbe(lc.seed, lc.probe)
	if err != nil {
		return nil, err
	}
	ms = append(ms, im...)

	// Observability cost: the same rotation with a public gate flipped on.
	rotation := func() float64 {
		ns, _, rerr := w.perBackend(lc.probe, core.EngineThreaded)
		if rerr != nil {
			err = rerr
		}
		return mean(ns)
	}
	off := rotation()
	telemetry.SetEnabled(true)
	telOn := rotation()
	telemetry.SetEnabled(false)
	trace.SetEnabled(true)
	trOn := rotation()
	trace.SetEnabled(false)
	trace.Reset()
	if err != nil {
		return nil, err
	}
	return append(ms,
		metric{"telemetry.call_ns_delta", "ns", telOn - off},
		metric{"trace.call_ns_delta", "ns", trOn - off}), nil
}

// interpProbe times the bytecode interpreter and the adaptive wrapper's
// compiled path (cache hit + run) on one seeded loop function.
func interpProbe(seed int64, dur time.Duration) ([]metric, error) {
	f := genJitFunc(newRNG(seed, "interp"), 1) // the sum-of-squares loop
	const arg = 20
	want, _, err := jit.Interp(f, arg)
	if err != nil {
		return nil, err
	}
	var perr error
	interp := microBench(dur, func() {
		if got, _, err := jit.Interp(f, arg); err != nil || got != want {
			perr = fmt.Errorf("interp: %d, want %d (err %v)", got, want, err)
		}
	})
	ad := jit.NewAdaptive(jit.NewMachine(mem.Uncosted), 1)
	call := func() {
		if got, _, err := ad.Call(f, arg); err != nil || got != want {
			perr = fmt.Errorf("adaptive: %d, want %d (err %v)", got, want, err)
		}
	}
	for i := 0; i < 3; i++ { // cross the threshold: the timed calls run compiled code
		call()
	}
	if !ad.Compiled(f) {
		return nil, fmt.Errorf("adaptive probe: function never compiled")
	}
	adaptive := microBench(dur, call)
	if perr != nil {
		return nil, perr
	}
	return []metric{
		{"jit.interp_ns_per_call", "ns", interp},
		{"jit.adaptive_call_ns", "ns", adaptive},
	}, nil
}

// tierProbe drives a seeded biased loop through interpret → compile →
// superblock on the adaptive wrapper and reports simulated cycles per call
// on tier 2 and tier 3 plus the superblock tier's own counters.  Every
// number is a count and must repeat exactly.
func tierProbe(seed int64) ([]metric, error) {
	f, pivot, a, _ := genBiasedLoop(newRNG(seed, "tier"))
	x, want := pivot-1, 100*a

	m2 := jit.NewMachine(mem.Uncosted)
	fn2, err := m2.Compile(f)
	if err != nil {
		return nil, err
	}
	got, tier2, err := m2.Run(fn2, x)
	if err != nil || got != want {
		return nil, fmt.Errorf("tier 2: %d, want %d (err %v)", got, want, err)
	}

	counter := func(name string) uint64 { return telemetry.Default.Counter(name).Load() }
	formed0, installed0, exits0 := counter("superblock.formed"), counter("superblock.installed"), counter("superblock.side_exits")
	m := jit.NewMachine(mem.Uncosted)
	ad := jit.NewAdaptiveCache(m, 3, codecache.New(codecache.Config{Machine: m.Core(), MaxEntries: 8}))
	ep := profile.NewEdgeProfiler(1)
	if err := ep.Attach(m.Core()); err != nil {
		return nil, err
	}
	ad.EnableSuperblocks(jit.SuperblockConfig{Threshold: 8, Edges: ep, DeoptFactor: 8, PollEvery: 2, Cooldown: 6})
	var tier3 uint64
	for i := 0; i < 200 && !ad.Superblocked(f); i++ {
		if got, _, err := ad.Call(f, x); err != nil || got != want {
			return nil, fmt.Errorf("tier pipeline: %d, want %d (err %v)", got, want, err)
		}
		ad.WaitPromotions()
	}
	if !ad.Superblocked(f) {
		return nil, fmt.Errorf("tier pipeline: function never reached tier 3")
	}
	ep.Detach(m.Core()) // measure without the edge probe's per-branch cost
	for i := 0; i < 16; i++ {
		got, c, err := ad.Call(f, x)
		if err != nil || got != want {
			return nil, fmt.Errorf("tier 3: %d, want %d (err %v)", got, want, err)
		}
		tier3 = c
	}
	return []metric{
		{"jit.tier2_cycles_per_call", "cycles", float64(tier2)},
		{"superblock.cycles_per_call", "cycles", float64(tier3)},
		{"superblock.formed", "count", float64(counter("superblock.formed") - formed0)},
		{"superblock.installed", "count", float64(counter("superblock.installed") - installed0)},
		{"superblock.side_exits", "count", float64(counter("superblock.side_exits") - exits0)},
	}, nil
}
