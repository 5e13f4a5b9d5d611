package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/tinyc"
	"repro/internal/vasm"
	"repro/internal/verify"
)

// compileWL is the cold path "specification to first result": a seeded
// corpus of distinct programs in the three input languages goes through
// its front end, Machine.Install (verify + predecode), one call and
// Uninstall.  Code generation is never amortised here, and the machine is
// written (install, uninstall) where call_hot only reads it.
type compileWL struct {
	ro    []int32
	ts    []*target
	progs []*cprog
	rot   int // backend rotation offset, advanced every unit
	hash  string
}

const corpusPerLang = 12

type cprog struct {
	lang string // "jit", "tinyc", "vasm"
	span string // root span name, "cold."+lang
	jf   *jit.Func
	src  string // tinyc or vasm source
	vp   *vprog // vasm: the description the source was printed from
	arg  int32
	want int32
	// bytes is the installed code size per backend, recorded at set-up.
	bytes [3]int
}

func (w *compileWL) name() string    { return "compile_install" }
func (w *compileWL) corpus() string  { return w.hash }
func (w *compileWL) procs() int      { return 1 }
func (w *compileWL) sliceUnits() int { return 35 }
func (w *compileWL) prepare(int) int { return 0 }
func (w *compileWL) teardown()       { *w = compileWL{} }

func (w *compileWL) headline() (string, string, func(float64) float64) {
	return "cold_us_per_func", "us", func(ns float64) float64 { return ns / 1e3 }
}

func (w *compileWL) allocName() string { return "cold_alloc_bytes_per_func" }
func (w *compileWL) shareLayers() []string {
	return []string{layerFront, layerInstall, layerExec, layerCore, layerBench}
}

func (w *compileWL) exact() (string, string, float64) {
	sum, n := 0, 0
	for _, p := range w.progs {
		for _, b := range p.bytes {
			sum += b
			n++
		}
	}
	return "code_bytes_per_func", "B", float64(sum) / float64(n)
}

func (w *compileWL) setup(seed int64) error {
	rng := newRNG(seed, "compile")
	w.ro = genRO(newRNG(seed, "compile/ro"))
	var h corpusHasher
	h.add("%v", w.ro)
	for i := 0; i < corpusPerLang; i++ {
		// Arguments stay small: the jit loop templates run arg iterations.
		p := &cprog{lang: "jit", span: "cold.jit", jf: genJitFunc(rng, i), arg: 8 + int32(rng.Intn(16))}
		want, _, err := jit.Interp(p.jf, p.arg)
		if err != nil {
			return err
		}
		p.want = want
		h.add("jit|%d|%v|%v", p.arg, p.jf.Consts, p.jf.Code)
		w.progs = append(w.progs, p)
	}
	for i := 0; i < corpusPerLang; i++ {
		p := &cprog{lang: "tinyc", span: "cold.tinyc", src: genTinyc(rng, i).source(), arg: tinycArg}
		want, err := tinycReference(p.src, p.arg)
		if err != nil {
			return err
		}
		p.want = want
		h.add("tinyc|%d|%s", p.arg, p.src)
		w.progs = append(w.progs, p)
	}
	for i := 0; i < corpusPerLang; i++ {
		vp := genVasmProg(rng, i)
		p := &cprog{lang: "vasm", span: "cold.vasm", vp: vp, src: vp.vasmSource(), arg: int32(rng.Intn(1000))}
		want, _, err := vp.eval(w.ro, p.arg)
		if err != nil {
			return err
		}
		p.want = want
		h.add("vasm|%d|%s", p.arg, p.src)
		w.progs = append(w.progs, p)
	}
	w.hash = h.sum()

	var err error
	if w.ts, err = newTargets(w.ro); err != nil {
		return err
	}
	// One pass over corpus x backend records each program's code size and
	// proves the op (result against the reference) before anything is
	// timed.
	for _, p := range w.progs {
		for b, tg := range w.ts {
			n, err := w.op(p, tg, nil, noSpan)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", p.lang, tg.name, err)
			}
			p.bytes[b] = n
		}
	}
	return nil
}

// tinycReference runs src's main(arg) on the tinyc interpreter: the
// reference the compiled code is checked against.
func tinycReference(src string, arg int32) (int32, error) {
	prog, err := tinyc.Parse(src)
	if err != nil {
		return 0, err
	}
	v, err := tinyc.NewInterp(prog).Call("main", tinyc.IntV(arg))
	if err != nil {
		return 0, err
	}
	return v.I, nil
}

// op takes one program from source to first result and back out of the
// machine, and returns the code bytes it had installed.
func (w *compileWL) op(p *cprog, tg *target, tr *tracer, root spanID) (int, error) {
	var fns []*core.Func
	var entry *core.Func
	var args []core.Value
	mk := tg.m.Mark()
	switch p.lang {
	case "jit":
		s := tr.begin("jit.Compile", layerFront, root, 0, 0)
		fn, err := tg.jm.Compile(p.jf)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		s = tr.begin("core.Install", layerInstall, root, 0, 0)
		err = tg.m.Install(fn)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		fns, entry, args = []*core.Func{fn}, fn, []core.Value{core.I(p.arg)}
	case "tinyc":
		s := tr.begin("tinyc.Parse", layerFront, root, 0, 0)
		prog, err := tinyc.Parse(p.src)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		// Compile installs what it generates, so this span is front end
		// plus install.
		s = tr.begin("tinyc.Compile", layerFront, root, 0, 0)
		c := tinyc.NewCompiler(tg.m)
		err = c.Compile(prog)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		for _, fn := range c.Funcs() {
			fns = append(fns, fn)
		}
		entry, args = c.Funcs()["main"], []core.Value{core.I(p.arg)}
	case "vasm":
		s := tr.begin("vasm.Assemble", layerFront, root, 0, 0)
		prog, err := vasm.Assemble(tg.m, p.src)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		for _, fn := range prog.Funcs {
			fns = append(fns, fn)
		}
		entry, args = prog.Funcs[p.vp.name], tg.args(p.arg)
	}
	s := tr.begin("core.first_call", layerExec, root, 0, 0)
	v, _, err := tg.m.CallWithStats(context.Background(), core.CallOpts{}, entry, args...)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	bytes := 0
	s = tr.begin("core.Uninstall", layerCore, root, 0, 0)
	for _, fn := range fns {
		bytes += fn.SizeBytes()
		if uerr := tg.m.Uninstall(fn); uerr != nil && err == nil {
			err = uerr
		}
	}
	// The front ends bump-allocate a dispatch table per program; Release
	// returns it, so the heap does not fill however long the run.
	tg.m.Release(mk)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	if int32(v.Int()) != p.want {
		return 0, fmt.Errorf("%s: result %d, reference %d", p.lang, v.Int(), p.want)
	}
	return bytes, nil
}

func (w *compileWL) slice(reps int, tr *tracer) sliceOut {
	var out sliceOut
	for r := 0; r < reps; r++ {
		for i, p := range w.progs {
			b := (i + w.rot) % len(w.ts)
			root := tr.begin(p.span, layerBench, noSpan, 0, uint64(out.ops))
			n, err := w.op(p, w.ts[b], tr, root)
			tr.end(root)
			out.ops++
			if err != nil || n != p.bytes[b] {
				out.failed++
				continue
			}
			out.work++
		}
		w.rot++
	}
	return out
}

func (w *compileWL) layers(lc *layerCtx) ([]metric, error) {
	t := lc.traced
	us := func(name string) float64 { return t.spanStat(name) / 1e3 }
	ms := []metric{
		{"jit.compile_us_per_func", "us", us("jit.Compile")},
		{"tinyc.parse_us_per_func", "us", us("tinyc.Parse")},
		{"tinyc.compile_us_per_func", "us", us("tinyc.Compile")},
		{"vasm.assemble_us_per_func", "us", us("vasm.Assemble")},
		{"core.install_us_per_func", "us", us("core.Install")},
		{"core.uninstall_us_per_func", "us", us("core.Uninstall")},
		{"core.first_call_us", "us", us("core.first_call")},
	}

	// Verify and predecode, called directly on the code Install just ran
	// them on: the jit corpus compiled and installed on the mips machine.
	tg := w.ts[0]
	var fns []*core.Func
	words := 0
	for _, p := range w.progs[:corpusPerLang] {
		fn, err := tg.jm.Compile(p.jf)
		if err != nil {
			return nil, err
		}
		if err := tg.m.Install(fn); err != nil {
			return nil, err
		}
		fns = append(fns, fn)
		words += len(fn.Words)
	}
	nf := float64(len(fns))
	var verr error
	verifyNs := microBench(lc.probe, func() {
		for _, fn := range fns {
			err := verify.Verify(tg.bk, &verify.Code{
				Name: fn.Name, Words: fn.Words, Base: fn.Addr(), Entry: fn.Entry, PoolStart: fn.PoolStart,
			}, verify.Options{})
			if err != nil {
				verr = err
			}
		}
	})
	if verr != nil {
		return nil, fmt.Errorf("verify probe: %w", verr)
	}
	tcpu, ok := tg.m.CPU().(core.ThreadedCPU)
	if !ok {
		return nil, fmt.Errorf("%s CPU has no threaded engine", tg.name)
	}
	predecodeNs := microBench(lc.probe, func() {
		for _, fn := range fns {
			tcpu.Predecode(fn.Words, fn.Addr())
		}
	})
	// Cross-check of the direct verify figure: install+uninstall with the
	// verifier on, minus the same with it off.
	var ierr error
	cycle := func() {
		for _, fn := range fns {
			if err := tg.m.Uninstall(fn); err != nil {
				ierr = err
			}
			if err := tg.m.Install(fn); err != nil {
				ierr = err
			}
		}
	}
	withVerify := microBench(lc.probe, cycle)
	tg.m.SetVerify(false)
	withoutVerify := microBench(lc.probe, cycle)
	tg.m.SetVerify(true)
	if ierr != nil {
		return nil, fmt.Errorf("install probe: %w", ierr)
	}
	for _, fn := range fns {
		if err := tg.m.Uninstall(fn); err != nil {
			return nil, err
		}
	}
	ms = append(ms,
		metric{"verify.us_per_func", "us", verifyNs / nf / 1e3},
		metric{"verify.ns_per_word", "ns", verifyNs / float64(words)},
		metric{"verify.us_per_func_by_toggle", "us", (withVerify - withoutVerify) / nf / 1e3},
		metric{"exec.predecode_us_per_func", "us", predecodeNs / nf / 1e3})

	cm, err := w.cacheProbe(lc.probe)
	if err != nil {
		return nil, err
	}
	bm, err := w.batchProbe()
	if err != nil {
		return nil, err
	}
	return append(append(ms, cm...), bm...), nil
}

// cacheProbe times the code cache's two paths over the jit corpus: a hit
// (resident key) and a miss that compiles, installs and evicts (capacity
// one, alternating keys).
func (w *compileWL) cacheProbe(dur time.Duration) ([]metric, error) {
	tg := w.ts[0]
	jits := w.progs[:corpusPerLang]
	compile := func(p *cprog) codecache.CompileFunc {
		return func() (*core.Func, error) { return tg.jm.Compile(p.jf) }
	}
	var cerr error
	hitCache := codecache.New(codecache.Config{Machine: tg.m, MaxEntries: 8})
	hitKey := jits[0].jf.CacheKey()
	if _, err := hitCache.GetOrCompile(hitKey, compile(jits[0])); err != nil {
		return nil, err
	}
	hit := microBench(dur, func() {
		if _, err := hitCache.GetOrCompile(hitKey, compile(jits[0])); err != nil {
			cerr = err
		}
	})
	hitCache.Invalidate(hitKey)

	missCache := codecache.New(codecache.Config{Machine: tg.m, MaxEntries: 1})
	keys := []string{jits[0].jf.CacheKey(), jits[1].jf.CacheKey()}
	i := 0
	miss := microBench(dur, func() {
		if _, err := missCache.GetOrCompile(keys[i&1], compile(jits[i&1])); err != nil {
			cerr = err
		}
		i++
	})
	for _, k := range keys {
		missCache.Invalidate(k)
	}
	if cerr != nil {
		return nil, fmt.Errorf("codecache probe: %w", cerr)
	}
	return []metric{
		{"codecache.hit_ns", "ns", hit},
		{"codecache.miss_compile_us", "us", miss / 1e3},
	}, nil
}

// batchProbe compiles the jit corpus (repeated to 240 functions) through
// the batch pool at workers = GOMAXPROCS and serially, function by
// function.  The worker count is recorded beside the ratio: on one CPU the
// ratio is lock amortisation, not parallel speed-up.
func (w *compileWL) batchProbe() ([]metric, error) {
	tg := w.ts[0]
	const copies = 20
	var fs []*jit.Func
	for c := 0; c < copies; c++ {
		for _, p := range w.progs[:corpusPerLang] {
			fs = append(fs, p.jf)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	pool, err := batch.New(batch.Config{Machine: tg.m, Workers: workers})
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	reqs := make([]batch.Request, len(fs))
	for i, f := range fs {
		reqs[i] = batch.Request{Name: f.Name, Compile: func(a *core.Asm) (*core.Func, error) { return jit.CompileInto(a, f) }}
	}
	uninstall := func(fns []*core.Func) error {
		for _, fn := range fns {
			if err := tg.m.Uninstall(fn); err != nil {
				return err
			}
		}
		return nil
	}
	var pooled, serial []float64
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		res := pool.CompileBatch(context.Background(), reqs)
		pooled = append(pooled, time.Since(t0).Seconds())
		var fns []*core.Func
		for _, r := range res {
			if r.Err != nil {
				return nil, fmt.Errorf("batch probe: %w", r.Err)
			}
			fns = append(fns, r.Func)
		}
		if err := uninstall(fns); err != nil {
			return nil, err
		}
		fns = fns[:0]
		t0 = time.Now()
		for _, f := range fs {
			fn, err := tg.jm.Compile(f)
			if err != nil {
				return nil, err
			}
			if err := tg.m.Install(fn); err != nil {
				return nil, err
			}
			fns = append(fns, fn)
		}
		serial = append(serial, time.Since(t0).Seconds())
		if err := uninstall(fns); err != nil {
			return nil, err
		}
	}
	sort.Float64s(pooled)
	sort.Float64s(serial)
	n := float64(len(fs))
	return []metric{
		{"batch.funcs_per_s", "1/s", n / pooled[0]},
		{"batch.vs_serial_ratio", "ratio", serial[0] / pooled[0]},
		{"batch.workers", "count", float64(workers)},
	}, nil
}
