package jit

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/superblock"
	"repro/internal/trace"
)

// SuperblockConfig enables the third execution tier: once a function has
// stayed hot past its tier-2 compile, its portable-emission recording is
// re-formed into a profile-guided superblock (internal/superblock) and
// installed alongside the tier-2 body.  Calls run the optimized trace;
// side-exit counters are polled for bias flips and a flipped function is
// de-optimized back to tier 2, its edge profile reset, and re-promoted
// once the fresh profile is decisive again.
type SuperblockConfig struct {
	// Threshold is how many calls past the tier-2 Threshold a function
	// must reach before formation is attempted.  Zero selects 100.
	Threshold int64
	// Edges supplies branch bias and is reset on de-optimization.  It
	// must be attached to the Adaptive's core machine; without it no
	// branch is ever decisive and no superblock installs.
	Edges *profile.EdgeProfiler
	// DeoptFactor triggers de-optimization when observed side exits
	// exceed DeoptFactor × tier-3 calls.  A healthy loop exits its trace
	// about once per call, so the factor measures exits per call; a
	// flipped branch inside a loop exits once per iteration and crosses
	// any small factor immediately.  Zero selects 8.
	DeoptFactor uint64
	// PollEvery is the tier-3 call period between side-exit counter
	// polls.  Zero selects 64.
	PollEvery int64
	// Cooldown is how many additional calls a de-optimized (or
	// failed-to-form) function waits before formation is retried, giving
	// the reset profile time to become decisive.  Zero selects
	// 2×Threshold.
	Cooldown int64
	// Options tunes formation; its CounterAddr is ignored (the tier
	// allocates one counter word per function in simulated memory).
	Options superblock.Options
}

func (c SuperblockConfig) withDefaults() SuperblockConfig {
	if c.Threshold == 0 {
		c.Threshold = 100
	}
	if c.DeoptFactor == 0 {
		c.DeoptFactor = 8
	}
	if c.PollEvery == 0 {
		c.PollEvery = 64
	}
	if c.Cooldown == 0 {
		c.Cooldown = 2 * c.Threshold
	}
	return c
}

// tier3state is one function's superblock lifecycle.  fn is nil while the
// function is on tier 2 (not yet formed, formation failed, or deopted);
// retryAt is the hot-count at which formation may be attempted again
// (math.MaxInt64 = never, for recordings that cannot replay).
type tier3state struct {
	mu      sync.RWMutex
	fn      *core.Func // a unit of one: deopt unloads it
	counter uint64     // side-exit counter word (simulated memory), 0 until allocated
	exits   uint64     // side exits drained from the counter since fn was installed
	calls   atomic.Int64
	retryAt atomic.Int64
}

// EnableSuperblocks turns on the tier-3 superblock pipeline.  Not safe to
// call concurrently with Call.
func (ad *Adaptive) EnableSuperblocks(cfg SuperblockConfig) {
	c := cfg.withDefaults()
	ad.sb = &c
}

// Superblocked reports whether f currently runs its tier-3 body.
func (ad *Adaptive) Superblocked(f *Func) bool {
	sti, ok := ad.sbState.Load(ad.key(f))
	if !ok {
		return false
	}
	st := sti.(*tier3state)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.fn != nil
}

// runCompiled is the tier-2/tier-3 dispatch for a hot function whose
// compiled body fn2 is resident: it runs the superblock body when one is
// installed (polling its side-exit counter), and otherwise runs tier 2,
// kicking background formation once the call count warrants it.
func (ad *Adaptive) runCompiled(key string, f *Func, fn2 *core.Func, n int64, args ...int32) (int32, uint64, error) {
	cfg := ad.sb
	if cfg == nil {
		return ad.m.Run(fn2, args...)
	}
	sti, ok := ad.sbState.Load(key)
	if !ok {
		if n >= int64(ad.Threshold)+cfg.Threshold {
			ad.formSuperblock(key, f, fn2)
		}
		return ad.m.Run(fn2, args...)
	}
	st := sti.(*tier3state)
	st.mu.RLock()
	fn3 := st.fn
	st.mu.RUnlock()
	if fn3 == nil {
		if n >= st.retryAt.Load() {
			ad.formSuperblock(key, f, fn2)
		}
		return ad.m.Run(fn2, args...)
	}
	if calls := st.calls.Add(1); calls%cfg.PollEvery == 0 {
		ad.pollSideExits(key, st, fn2, calls)
	}
	r, cycles, err := ad.m.Run(fn3, args...)
	if errors.Is(err, core.ErrUnloaded) {
		// Deoptimised since st.fn was read: tier 2 serves the call.
		return ad.m.Run(fn2, args...)
	}
	return r, cycles, err
}

// pollSideExits drains the function's side-exit counter — under the
// machine's lock, since another goroutine's call may be bumping it — and
// de-optimizes when exits outrun calls by the configured factor: the tier-3
// body is unloaded (a caller that already read st.fn gets ErrUnloaded and
// runs tier 2), the stale edge profile over the tier-2 body is discarded so
// retraining starts clean, and formation is retried after the cooldown.
func (ad *Adaptive) pollSideExits(key string, st *tier3state, fn2 *core.Func, calls int64) {
	cfg := ad.sb
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.fn == nil {
		return
	}
	d, err := ad.m.Core().DrainCounter(st.counter)
	if err != nil {
		return
	}
	if d > 0 {
		superblock.NoteSideExits(d)
	}
	st.exits += d
	if st.exits <= cfg.DeoptFactor*uint64(calls) {
		return
	}
	// Bias flip: back to tier 2.
	st.fn.Unit().Unload()
	st.fn = nil
	superblock.NoteDeopt()
	if cfg.Edges != nil && fn2.Addr() != 0 {
		cfg.Edges.ResetSpan(fn2.Addr(), fn2.Addr()+uint64(fn2.SizeBytes()))
	}
	st.retryAt.Store(ad.hot.Get(key) + cfg.Cooldown)
}

// formSuperblock runs formation in the background (one flight per key):
// re-derive the tier-2 recording, form against the live edge profile,
// compile, install, and publish.  Failure modes park the state: recordings
// that cannot replay never retry; indecisive profiles retry after the
// cooldown with more training data.
func (ad *Adaptive) formSuperblock(key string, f *Func, fn2 *core.Func) {
	if _, inflight := ad.sbForming.LoadOrStore(key, struct{}{}); inflight {
		return
	}
	ad.promoteWG.Add(1)
	go func() {
		defer ad.promoteWG.Done()
		defer ad.sbForming.Delete(key)
		cfg := ad.sb
		bk := ad.backendOf()
		sti, _ := ad.sbState.LoadOrStore(key, &tier3state{})
		st := sti.(*tier3state)
		park := func(until int64) {
			st.retryAt.Store(until)
		}
		sp := trace.Begin(trace.KindSuperblock, bk.Name(), f.Name)

		// Re-derive the portable-emission recording.  CompileInto is
		// deterministic, so the recording's event sites are the word
		// indices of the installed tier-2 body and the edge profile's
		// PCs line up as fn2.Addr() + 4*site.
		a := core.NewAsm(bk)
		a.Record(true)
		if _, err := CompileInto(a, f); err != nil {
			sp.End(fn2.TraceFlow(), trace.Attrs{Verdict: "compile-error"})
			park(math.MaxInt64)
			return
		}
		rec := a.TakeRecording()
		if rec == nil {
			sp.End(fn2.TraceFlow(), trace.Attrs{Verdict: "no-recording"})
			park(math.MaxInt64)
			return
		}
		if ok, _ := rec.Eligible(); !ok {
			sp.End(fn2.TraceFlow(), trace.Attrs{Verdict: "ineligible"})
			park(math.MaxInt64)
			return
		}

		st.mu.Lock()
		if st.counter == 0 {
			if addr, err := ad.m.Core().Alloc(8); err == nil {
				st.counter = addr
			}
		}
		counter := st.counter
		st.mu.Unlock()
		if counter == 0 {
			sp.End(fn2.TraceFlow(), trace.Attrs{Verdict: "no-counter"})
			park(ad.hot.Get(key) + cfg.Cooldown)
			return
		}

		bias := func(site int) (uint64, uint64, bool) {
			if cfg.Edges == nil {
				return 0, 0, false
			}
			return cfg.Edges.EdgeAt(fn2.Addr() + 4*uint64(site))
		}
		opt := cfg.Options
		opt.CounterAddr = counter
		plan, err := superblock.Form(rec, bias, opt)
		if err != nil {
			sp.End(fn2.TraceFlow(), trace.Attrs{Verdict: "form-error"})
			park(math.MaxInt64)
			return
		}
		if !plan.Interesting() {
			// Nothing decisive yet: keep training, retry later.
			sp.End(fn2.TraceFlow(), trace.Attrs{Verdict: "indecisive"})
			park(ad.hot.Get(key) + cfg.Cooldown)
			return
		}
		fn3, _, err := plan.Compile(core.NewAsm(bk))
		if err != nil {
			sp.End(fn2.TraceFlow(), trace.Attrs{Verdict: "emit-error"})
			park(math.MaxInt64)
			return
		}
		if err := ad.m.Core().Install(fn3); err != nil { // a unit of one
			sp.End(fn2.TraceFlow(), trace.Attrs{Verdict: "install-error"})
			park(ad.hot.Get(key) + cfg.Cooldown)
			return
		}
		_, _ = ad.m.Core().DrainCounter(counter) // exits a deopted body left behind
		st.mu.Lock()
		st.exits = 0
		st.calls.Store(0)
		st.fn = fn3
		st.mu.Unlock()
		superblock.NoteInstalled()
		sp.End(fn3.TraceFlow(), trace.Attrs{
			N: int64(plan.TraceBlocks()), Bytes: int64(fn3.SizeBytes()), Verdict: "installed"})
	}()
}

// backendOf returns the machine's backend for tier-3 re-emission.
func (ad *Adaptive) backendOf() core.Backend { return ad.m.backend }
