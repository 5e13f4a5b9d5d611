package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dcg"
)

// emitWL is the paper's headline cost: core.Asm Begin…End of a seeded
// 1,000-instruction VCODE mix on the three backends in rotation.  Nothing
// is installed or run in the timed loop, so core and the backend encoders
// do all the work.
type emitWL struct {
	mix   *vprog
	ro    []int32
	parts []asmParts // one reused assembler per backend
	spans []string   // each backend's root span name
	// wantWords and wantSum pin what each backend must emit: recorded at
	// set-up from the emission that ran to the reference result.
	wantWords []int
	wantSum   []uint64
	last      []*core.Func
	hash      string
}

func (w *emitWL) name() string    { return "emit" }
func (w *emitWL) corpus() string  { return w.hash }
func (w *emitWL) procs() int      { return 1 }
func (w *emitWL) sliceUnits() int { return 220 }
func (w *emitWL) teardown()       { *w = emitWL{} }

func (w *emitWL) headline() (string, string, func(float64) float64) {
	return "emit_ns_per_insn", "ns", func(ns float64) float64 { return ns }
}

func (w *emitWL) allocName() string     { return "emit_alloc_bytes_per_insn" }
func (w *emitWL) shareLayers() []string { return []string{layerCore, layerBench} }

func (w *emitWL) exact() (string, string, float64) {
	words := 0
	for _, n := range w.wantWords {
		words += n
	}
	return "code_bytes_per_insn", "B", float64(4*words) / float64(len(w.wantWords)*emitMixInsns)
}

func wordSum(words []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range words {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return h
}

func (w *emitWL) setup(seed int64) error {
	w.mix = genEmitMix(newRNG(seed, "emit"))
	w.ro = genRO(newRNG(seed, "emit/ro"))
	var h corpusHasher
	h.add("%v|%s", w.ro, w.mix.vasmSource())
	w.hash = h.sum()

	// The machines exist only to prove the emitted words right: each
	// backend's emission is installed and run once against the Go
	// reference.  The timed loop then holds every emission to the same
	// words.
	ts, err := newTargets(w.ro)
	if err != nil {
		return err
	}
	for _, tg := range ts {
		fn, err := w.mix.emit(tg.asm)
		if err != nil {
			return fmt.Errorf("%s: %w", tg.name, err)
		}
		if fn.NumInsns != emitMixInsns {
			return fmt.Errorf("%s: emitted %d VCODE instructions, want %d", tg.name, fn.NumInsns, emitMixInsns)
		}
		words, sum := len(fn.Words), wordSum(fn.Words)
		if err := tg.m.Install(fn); err != nil {
			return err
		}
		if _, _, err := tg.refCall(w.mix, fn, w.ro, 1234); err != nil {
			return err
		}
		w.parts = append(w.parts, asmParts{a: core.NewAsm(tg.bk), p: w.mix})
		w.spans = append(w.spans, tg.emitSpan)
		w.wantWords = append(w.wantWords, words)
		w.wantSum = append(w.wantSum, sum)
	}
	w.last = make([]*core.Func, len(ts))
	return nil
}

func (w *emitWL) slice(reps int, tr *tracer) sliceOut {
	var out sliceOut
	for r := 0; r < reps; r++ {
		for b := range w.parts {
			e := &w.parts[b]
			root := tr.begin(w.spans[b], layerBench, noSpan, 0, uint64(out.ops))
			s := tr.begin("core.Begin", layerCore, root, 0, 0)
			err := e.begin()
			tr.end(s)
			if err == nil {
				s = tr.begin("core.GetReg", layerCore, root, 0, 0)
				err = e.getRegs()
				tr.end(s)
			}
			var fn *core.Func
			if err == nil {
				s = tr.begin("core.body", layerCore, root, 0, 0)
				e.body()
				tr.end(s)
				s = tr.begin("core.End", layerCore, root, 0, 0)
				fn, err = e.a.End()
				tr.end(s)
			}
			tr.end(root)
			out.ops++
			if err != nil || fn.NumInsns != emitMixInsns || len(fn.Words) != w.wantWords[b] {
				out.failed++
				continue
			}
			w.last[b] = fn
			out.work += emitMixInsns
		}
	}
	return out
}

// prepare checks the last emission of each backend word for word (by
// checksum) against the set-up emission that ran to the reference result.
func (w *emitWL) prepare(int) int {
	failed := 0
	for b, fn := range w.last {
		if fn != nil && wordSum(fn.Words) != w.wantSum[b] {
			failed++
		}
		w.last[b] = nil
	}
	return failed
}

// rawRegs picks hard registers for the raw-encoder probe: the first
// caller-saved registers that are not argument registers.
func rawRegs(bk core.Backend, n int) (regs []core.Reg, base, arg core.Reg) {
	conv := bk.DefaultConv()
	base, arg = conv.IntArgs[0], conv.IntArgs[1]
	for _, r := range conv.CallerSaved {
		if r != base && r != arg && len(regs) < n {
			regs = append(regs, r)
		}
	}
	return regs, base, arg
}

func (w *emitWL) layers(lc *layerCtx) ([]metric, error) {
	t := lc.traced
	ms := []metric{
		{"core.begin_ns_per_func", "ns", t.spanStat("core.Begin")},
		{"core.getreg_ns_per_func", "ns", t.spanStat("core.GetReg")},
		{"core.body_ns_per_insn", "ns", t.spanStat("core.body") / emitMixInsns},
		{"core.end_ns_per_func", "ns", t.spanStat("core.End")},
		{"core.allocs_per_func", "count", float64(lc.untraced.mallocs) / float64(lc.untraced.ops)},
	}
	var emitNs, rawNs float64
	for b, name := range backendNames {
		bk := w.parts[b].a.Backend()
		perInsn := t.spanStat("emit."+name) / emitMixInsns
		regs, base, arg := rawRegs(bk, w.mix.nregs)
		buf := core.NewBuf(2 * emitMixInsns)
		var rawErr error
		raw := microBench(lc.probe, func() {
			if _, err := w.mix.emitRaw(bk, buf, regs, base, arg); err != nil {
				rawErr = err
			}
		}) / emitMixInsns
		if rawErr != nil {
			return nil, fmt.Errorf("raw encode %s: %w", name, rawErr)
		}
		ms = append(ms,
			metric{name + ".emit_ns_per_insn", "ns", perInsn},
			metric{name + ".raw_encode_ns_per_insn", "ns", raw},
			metric{name + ".words_per_insn", "count", float64(w.wantWords[b]) / emitMixInsns})
		emitNs += perInsn
		rawNs += raw
	}
	n := float64(len(backendNames))
	ms = append(ms, metric{"core.bookkeeping_ns_per_insn", "ns", (emitNs - rawNs) / n})

	// Allocator and label costs by a two-point fit: a function with few
	// pairs and one with many; the slope is one pair.
	a := core.NewAsm(newBackend("mips"))
	pairCost := func(pair func()) (float64, error) {
		var ferr error
		run := func(k int) float64 {
			return microBench(lc.probe/2, func() {
				if _, err := a.Begin("%i", core.Leaf); err != nil {
					ferr = err
					return
				}
				for i := 0; i < k; i++ {
					pair()
				}
				a.RetVoid()
				if _, err := a.End(); err != nil {
					ferr = err
				}
			})
		}
		_, per := twoPointFit(8, run(8), 264, run(264))
		return per, ferr
	}
	getput, err := pairCost(func() {
		if r, err := a.GetReg(core.Temp); err == nil {
			a.PutReg(r)
		}
	})
	if err != nil {
		return nil, err
	}
	label, err := pairCost(func() { a.Bind(a.NewLabel()) })
	if err != nil {
		return nil, err
	}
	ms = append(ms,
		metric{"core.getreg_putreg_ns", "ns", getput},
		metric{"core.label_bind_ns", "ns", label})

	dcgNs, err := dcgProbe(lc.seed, lc.probe)
	if err != nil {
		return nil, err
	}
	mipsNs := t.spanStat("emit.mips") / emitMixInsns
	ms = append(ms,
		metric{"dcg.ns_per_insn", "ns", dcgNs},
		metric{"dcg.vs_core_ratio", "ratio", dcgNs / mipsNs})
	return ms, nil
}

// dcgProbe is the baseline row: the IR-building generator (internal/dcg)
// fed seeded expression trees — build the trees, label, reduce — reported
// per VCODE instruction it ends up emitting.  The paper puts this style of
// system at about 35x VCODE's cost.
func dcgProbe(seed int64, dur time.Duration) (float64, error) {
	rng := newRNG(seed, "dcg")
	ks := make([]int64, 100)
	for i := range ks {
		ks[i] = smallImm(rng)
	}
	g := dcg.New(newBackend("mips"))
	ty := core.TypeI
	insns := 0
	var ferr error
	ns := microBench(dur, func() {
		args, err := g.Begin("%p%i", core.Leaf)
		if err != nil {
			ferr = err
			return
		}
		base, n := args[0], args[1]
		for _, k := range ks {
			nk := g.Op(core.OpAdd, ty, g.Reg(ty, n), g.Imm(ty, k))
			sh := g.Op(core.OpLsh, ty, g.Op(core.OpAdd, ty, g.Reg(ty, n), g.Imm(ty, k)), g.Imm(ty, 3))
			t1 := g.Op(core.OpSub, ty, g.Op(core.OpXor, ty, nk, sh), g.Imm(ty, 7))
			sum := g.Op(core.OpAnd, ty, g.Op(core.OpAdd, ty, g.Load(ty, g.Reg(core.TypeP, base), 4*(k%roWords)), t1), g.Imm(ty, 0xff))
			if err := g.Store(ty, g.Reg(core.TypeP, base), 4*(roWords+k%scratchWords), sum); err != nil {
				ferr = err
				return
			}
			l := g.NewLabel()
			if err := g.Branch(core.OpBlt, ty, g.Reg(ty, n), g.Imm(ty, k), l); err != nil {
				ferr = err
				return
			}
			g.Bind(l)
		}
		if err := g.Ret(ty, g.Reg(ty, n)); err != nil {
			ferr = err
			return
		}
		fn, err := g.End()
		if err != nil {
			ferr = err
			return
		}
		insns = fn.NumInsns
	})
	if ferr != nil {
		return 0, fmt.Errorf("dcg probe: %w", ferr)
	}
	return ns / float64(insns), nil
}
