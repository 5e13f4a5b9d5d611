package faultinject_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codecache"
	"repro/internal/codecache/cachetest"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/jit"
	"repro/internal/mem"
)

// Soak sizes: four workers rotating over the three ports, 64 keys through
// 16-entry caches, 30,000 mixed compile/execute calls (a tenth under
// -short), injector seeds 1..4.
const (
	soakWorkers  = 4
	soakKeys     = 64
	soakCapacity = 16
	soakCalls    = 30000
	soakSeed     = 1
)

// buildSummer assembles a running prefix sum over the words of
// [p, p+n) — the memory-touching slice of the stream, so load and store
// faults fire (the jit functions are register-only).
func buildSummer(m *core.Machine) (*core.Func, uint64, error) {
	const bufWords = 64
	buf, err := m.Alloc(4 * bufWords)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < bufWords; i++ {
		if err := m.Mem().Store(buf+uint64(4*i), 4, uint64(i)); err != nil {
			return nil, 0, err
		}
	}
	a := core.NewAsm(m.Backend())
	a.SetName("fault-summer")
	args, err := a.Begin("%p%i", core.Leaf)
	if err != nil {
		return nil, 0, err
	}
	p, n := args[0], args[1]
	acc, _ := a.GetReg(core.Temp)
	w, _ := a.GetReg(core.Temp)
	end, _ := a.GetReg(core.Temp)
	a.Setu(acc, 0)
	a.Addp(end, p, n)
	top := a.NewLabel()
	a.Bind(top)
	a.Ldui(w, p, 0)
	a.Addu(acc, acc, w)
	a.Stui(acc, p, 0)
	a.Addpi(p, p, 4)
	a.Bltp(p, end, top)
	a.Retu(acc)
	fn, err := a.End()
	if err != nil {
		return nil, 0, err
	}
	return fn, buf, m.Install(fn)
}

// TestFaultSoak drives the hardened pipeline under deterministic fault
// injection: every worker owns a simulated machine with an injector
// corrupting instruction fetches and data accesses, a code cache whose
// compile callbacks are made to fail and panic, and a mixed
// compile/execute key stream.  The hardening contract it holds: no panic
// escapes (simulator, trap and compile panics all become typed errors), a
// panicked compile still closes its single-flight (the soak finishes
// under a watchdog), and every call, failed or not, returns within a
// fixed budget because fuel and deadlines cut runaway code short.
func TestFaultSoak(t *testing.T) {
	calls := soakCalls
	if testing.Short() {
		calls /= 10
	}
	targets := []string{"mips", "sparc", "alpha"}

	// Everything a worker observes lands in exactly one of these.
	var (
		okCalls       atomic.Uint64
		wrongValue    atomic.Uint64 // silent corruption from a bit flip
		injectedErrs  atomic.Uint64
		compilePanics atomic.Uint64
		fuelErrs      atomic.Uint64
		deadlineErrs  atomic.Uint64
		simErrs       atomic.Uint64 // typed simulator rejection (decode, bounds, ...)
		simPanics     atomic.Uint64 // must stay zero
		trapPanics    atomic.Uint64 // must stay zero
		hostPanics    atomic.Uint64 // must stay zero
		maxCallNanos  atomic.Int64
	)
	classify := func(err error) *atomic.Uint64 {
		var cp *codecache.CompilePanicError
		var sp *core.PanicError
		var tp *core.TrapPanicError
		switch {
		case errors.As(err, &sp):
			return &simPanics
		case errors.As(err, &tp):
			return &trapPanics
		case errors.As(err, &cp):
			return &compilePanics
		case errors.Is(err, faultinject.ErrInjected):
			return &injectedErrs
		case errors.Is(err, core.ErrFuelExhausted):
			return &fuelErrs
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			return &deadlineErrs
		}
		return &simErrs
	}

	progs := make([]*jit.Func, soakKeys)
	cacheKeys := make([]string, soakKeys)
	for i := range progs {
		progs[i] = jit.Synthetic(int32(i))
		cacheKeys[i] = progs[i].CacheKey()
	}

	injectors := make([]*faultinject.Injector, soakWorkers)
	var wg sync.WaitGroup
	for w := 0; w < soakWorkers; w++ {
		m, err := jit.NewMachineTarget(targets[w%len(targets)], mem.Uncosted)
		if err != nil {
			t.Fatal(err)
		}
		summer, buf, err := buildSummer(m.Core())
		if err != nil {
			t.Fatal(err)
		}
		inj := faultinject.New(faultinject.Config{
			Seed:             soakSeed + int64(w),
			FetchErrorRate:   0.0005,
			FetchFlipRate:    0.001,
			LoadErrorRate:    0.002,
			StoreErrorRate:   0.002,
			CompileErrorRate: 0.10,
			CompilePanicRate: 0.05,
		})
		injectors[w] = inj
		m.Core().Mem().SetFaultHook(inj)
		base := m.Core().ArenaStats() // the summer is this test's, not the cache's
		cache := codecache.New(codecache.Config{Machine: m.Core(), MaxEntries: soakCapacity})

		// one is this worker's i-th call; a panic out of it is counted by
		// the caller's recover.
		one := func(i int) error {
			opts := core.CallOpts{Fuel: 200_000, PollStride: 256}
			if i%31 == 0 {
				// The buffer is self-corrupting (prefix sums plus
				// injected flips), so only the error path is checked.
				_, err := m.Core().CallWith(context.Background(), opts, summer, core.P(buf), core.I(256))
				if err == nil {
					okCalls.Add(1)
				}
				return err
			}
			k := (w + i*7) % soakKeys
			fn, err := cache.GetOrCompile(cacheKeys[k], inj.WrapCompile(func() (*core.Func, error) {
				return m.Compile(progs[k])
			}))
			if err != nil {
				return err
			}
			const arg, sumSq = 10, 385
			ctx, callArg, runaway := context.Background(), int32(arg), false
			switch {
			case i%97 == 1:
				// A loop far past the fuel budget: fuel must cut it.
				callArg, runaway = 1<<30, true
			case i%256 == 255:
				// The same loop with fuel for ~20 ms of simulation under
				// a 100 µs deadline: only cancellation can end it.  The
				// runtime runs the timer when it next preempts a busy
				// worker (≤ ~10 ms), so a 200k-step budget would usually
				// run out first and leave the deadline path unsoaked.
				callArg, runaway = 1<<30, true
				opts.Fuel = 1 << 22
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 100*time.Microsecond)
				defer cancel()
			}
			if runaway {
				// At these fault rates a long run is certain to hit an
				// injected fetch fault first, masking the cut-off under
				// test.  The worker owns this machine, so toggling its
				// hook is race-free.
				m.Core().Mem().SetFaultHook(nil)
				defer m.Core().Mem().SetFaultHook(inj)
			}
			got, _, err := m.RunWith(ctx, opts, fn, callArg)
			switch {
			case err != nil:
				return err
			case !runaway && got != int32(sumSq+arg*k):
				wrongValue.Add(1)
			default:
				okCalls.Add(1)
			}
			return nil
		}

		wg.Add(1)
		go func() {
			defer wg.Done()
			per := calls / soakWorkers
			if w < calls%soakWorkers {
				per++
			}
			for i := 0; i < per; i++ {
				func() {
					defer func() {
						if r := recover(); r != nil {
							hostPanics.Add(1)
							t.Errorf("panic escaped to worker %d: %v", w, r)
						}
					}()
					start := time.Now()
					err := one(i)
					if el := time.Since(start).Nanoseconds(); el > maxCallNanos.Load() {
						maxCallNanos.Store(el) // racy max is fine for a bound this loose
					}
					if err != nil {
						classify(err).Add(1)
					}
				}()
			}
			cachetest.Ledger(t, cache, m.Core(), base)
		}()
	}

	// A hang here is exactly the deadlock class the soak exists to catch.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("soak did not complete: deadlock (a panicked compile left its flight open?)")
	}

	var inj faultinject.Stats
	for _, in := range injectors {
		s := in.Stats()
		inj.FetchErrors += s.FetchErrors
		inj.BitFlips += s.BitFlips
		inj.LoadErrors += s.LoadErrors
		inj.StoreErrors += s.StoreErrors
		inj.CompileErrors += s.CompileErrors
		inj.CompilePanics += s.CompilePanics
	}
	t.Log(inj)
	t.Logf("call outcomes: %d ok, %d wrong-value, %d injected, %d compile-panic, %d fuel, %d deadline, %d simulator-rejected",
		okCalls.Load(), wrongValue.Load(), injectedErrs.Load(), compilePanics.Load(),
		fuelErrs.Load(), deadlineErrs.Load(), simErrs.Load())

	accounted := okCalls.Load() + wrongValue.Load() + injectedErrs.Load() + compilePanics.Load() +
		fuelErrs.Load() + deadlineErrs.Load() + simErrs.Load() +
		simPanics.Load() + trapPanics.Load() + hostPanics.Load()
	if accounted != uint64(calls) {
		t.Errorf("%d of %d calls accounted for", accounted, calls)
	}
	if n := simPanics.Load(); n != 0 {
		t.Errorf("%d simulator panics under corrupted code (*core.PanicError)", n)
	}
	if n := trapPanics.Load(); n != 0 {
		t.Errorf("%d trap handler panics (*core.TrapPanicError)", n)
	}
	if inj.FetchErrors == 0 || inj.BitFlips == 0 || inj.LoadErrors == 0 || inj.StoreErrors == 0 ||
		inj.CompileErrors == 0 || inj.CompilePanics == 0 {
		t.Errorf("a fault class never fired: %v", inj)
	}
	if compilePanics.Load() == 0 {
		t.Error("no injected compile panic surfaced as *codecache.CompilePanicError")
	}
	if injectedErrs.Load() == 0 {
		t.Error("no injected access fault surfaced as ErrInjected")
	}
	if fuelErrs.Load() == 0 {
		t.Error("no runaway loop was cut by ErrFuelExhausted")
	}
	if deadlineErrs.Load() == 0 {
		t.Error("no deadlined call was cancelled mid-loop")
	}
	if lat := time.Duration(maxCallNanos.Load()); lat >= 2*time.Second {
		t.Errorf("max single-call latency %v, want < 2s (bounded error latency)", lat)
	}
}
