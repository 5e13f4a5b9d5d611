package codecache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// fake returns a CompileFunc yielding a standalone (uninstallable) Func
// and counting invocations.
func fake(n *atomic.Int64, words int) CompileFunc {
	return func() (*core.Func, error) {
		n.Add(1)
		return &core.Func{Name: "fake", Words: make([]uint32, words)}, nil
	}
}

func newTestMachine(t testing.TB) *core.Machine {
	t.Helper()
	m := mem.New(1<<22, false)
	return core.NewMachine(mips.New(), mips.NewCPU(m), m)
}

// buildAdder compiles "f(x) = x + k" for a real MIPS machine.
func buildAdder(t testing.TB, k int64) *core.Func {
	t.Helper()
	a := core.NewAsm(mips.New())
	a.SetName(fmt.Sprintf("add%d", k))
	args, err := a.Begin("%i", core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	a.Addii(args[0], args[0], k)
	a.Reti(args[0])
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// TestSingleFlight launches K goroutines at one cold key and requires
// exactly one compile; everyone else must coalesce or hit.
func TestSingleFlight(t *testing.T) {
	c := New(Config{})
	var compiles atomic.Int64
	const K = 32
	compile := func() (*core.Func, error) {
		compiles.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the race window
		return &core.Func{Name: "slow", Words: make([]uint32, 8)}, nil
	}

	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	fns := make([]*core.Func, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			fn, err := c.GetOrCompile("hot", compile)
			if err != nil {
				t.Error(err)
			}
			fns[i] = fn
		}(i)
	}
	start.Done()
	wg.Wait()

	if n := compiles.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want 1", n)
	}
	for i := 1; i < K; i++ {
		if fns[i] != fns[0] {
			t.Fatalf("goroutine %d got a different *Func", i)
		}
	}
	s := c.Snapshot()
	if s.Misses != 1 || s.Compiles != 1 {
		t.Errorf("misses=%d compiles=%d, want 1/1", s.Misses, s.Compiles)
	}
	if s.Hits+s.Coalesced != K-1 {
		t.Errorf("hits+coalesced = %d+%d, want %d", s.Hits, s.Coalesced, K-1)
	}
}

// TestLRUEvictionOrder pins strict LRU order: touching an entry saves it,
// the least-recently-used one goes.
func TestLRUEvictionOrder(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	var n atomic.Int64
	for _, k := range []string{"a", "b"} {
		if _, err := c.GetOrCompile(k, fake(&n, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.GetOrCompile("a", fake(&n, 4)); err != nil { // touch a: b is now LRU
		t.Fatal(err)
	}
	if _, err := c.GetOrCompile("c", fake(&n, 4)); err != nil { // evicts b
		t.Fatal(err)
	}
	if c.Contains("b") {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if !c.Contains(k) {
			t.Errorf("%s should be resident", k)
		}
	}
	s := c.Snapshot()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("evictions=%d entries=%d, want 1/2", s.Evictions, s.Entries)
	}
}

// TestByteBoundEviction bounds the cache by code bytes rather than count.
func TestByteBoundEviction(t *testing.T) {
	c := New(Config{MaxCodeBytes: 100})
	var n atomic.Int64
	for i := 0; i < 10; i++ {
		if _, err := c.GetOrCompile(fmt.Sprint(i), fake(&n, 8)); err != nil { // 32 bytes each
			t.Fatal(err)
		}
	}
	s := c.Snapshot()
	if s.CodeBytes > 100 {
		t.Errorf("resident %d bytes exceeds 100-byte bound", s.CodeBytes)
	}
	if s.Evictions == 0 {
		t.Error("expected evictions under byte pressure")
	}
}

// TestEvictionFreesAndRecompiles is the machine-integrated round trip:
// eviction must uninstall (freeing simulator code memory for reuse) and a
// later request for the evicted key must recompile a working function.
func TestEvictionFreesAndRecompiles(t *testing.T) {
	m := newTestMachine(t)
	base := m.CodeBytesResident()
	c := New(Config{MaxEntries: 1, Machine: m})

	compiles := 0
	get := func(k int64) *core.Func {
		t.Helper()
		fn, err := c.GetOrCompile(fmt.Sprint(k), func() (*core.Func, error) {
			compiles++
			return buildAdder(t, k), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return fn
	}
	call := func(fn *core.Func, x, want int32) {
		t.Helper()
		got, err := m.Call(fn, core.I(x))
		if err != nil {
			t.Fatal(err)
		}
		if int32(got.Int()) != want {
			t.Fatalf("got %d, want %d", got.Int(), want)
		}
	}

	f1 := get(1)
	call(f1, 10, 11)
	oneResident := m.CodeBytesResident()

	f2 := get(2) // evicts f1
	if m.Installed(f1) {
		t.Error("evicted function still installed")
	}
	if !m.Installed(f2) {
		t.Error("resident function not installed")
	}
	if r := m.CodeBytesResident(); r != oneResident {
		t.Errorf("resident bytes %d after eviction, want %d (memory not freed)", r, oneResident)
	}
	call(f2, 10, 12)

	// Round trip: the evicted key recompiles and runs correctly.
	f1b := get(1)
	call(f1b, 10, 11)
	if compiles != 3 {
		t.Errorf("compiles = %d, want 3 (evicted key must recompile)", compiles)
	}
	if s := c.Snapshot(); s.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", s.Evictions)
	}
	// Steady state: capacity 1 means resident code never grows past one
	// function even after a long mixed stream.
	for i := 0; i < 20; i++ {
		call(get(int64(i%5)), 1, int32(1+i%5))
	}
	if r := m.CodeBytesResident(); r != oneResident {
		t.Errorf("resident bytes %d after stream, want %d", r, oneResident)
	}
	_ = base
}

// TestCompileErrorNotCached: failures propagate to every coalesced waiter
// and the next request retries.
func TestCompileErrorNotCached(t *testing.T) {
	c := New(Config{})
	boom := errors.New("boom")
	if _, err := c.GetOrCompile("k", func() (*core.Func, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Contains("k") {
		t.Error("failed compile cached")
	}
	var n atomic.Int64
	if _, err := c.GetOrCompile("k", fake(&n, 4)); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if n.Load() != 1 {
		t.Error("retry did not recompile")
	}
}

// TestConcurrentStress hammers a machine-bound cache from many goroutines
// with a key space larger than capacity; meaningful chiefly under -race.
func TestConcurrentStress(t *testing.T) {
	m := newTestMachine(t)
	const workers, opsPerWorker, keys, capacity = 8, 150, 16, 4
	c := New(Config{MaxEntries: capacity, Machine: m})

	var wg sync.WaitGroup
	var asks atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				k := int64((w + i*7) % keys)
			again:
				asks.Add(1)
				fn, err := c.GetOrCompile(fmt.Sprint(k), func() (*core.Func, error) {
					return buildAdder(t, k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					got, err := m.Call(fn, core.I(100))
					if errors.Is(err, core.ErrUnloaded) {
						goto again // evicted between lookup and call: ask again
					}
					if err != nil {
						t.Error(err)
						return
					}
					if int32(got.Int()) != int32(100+k) {
						t.Errorf("key %d: got %d", k, got.Int())
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	s := c.Snapshot()
	if s.Entries > capacity {
		t.Errorf("entries %d exceed capacity %d", s.Entries, capacity)
	}
	if s.Hits+s.Misses+s.Coalesced != asks.Load() {
		t.Errorf("request accounting off: %d asks, %+v", asks.Load(), s)
	}
	if s.CompileErrors != 0 {
		t.Errorf("%d compile errors", s.CompileErrors)
	}

	// The stream compiled far more code than stays resident: eviction
	// bounds the arena at capacity functions plus one in flight.
	var resident []string
	maxFn := 0
	for k := 0; k < keys; k++ {
		if fn, ok := c.Get(fmt.Sprint(k)); ok {
			resident = append(resident, fmt.Sprint(k))
			maxFn = max(maxFn, fn.SizeBytes())
		}
	}
	if got, bound := m.CodeBytesResident(), uint64(capacity+1)*uint64(maxFn+64)+4096; got > bound {
		t.Errorf("resident code %d bytes after %d compiles, want <= %d", got, s.Compiles, bound)
	}

	// Warm phase: the resident keys, from every worker, compile nothing.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				_, err := c.GetOrCompile(resident[(w+i)%len(resident)], func() (*core.Func, error) {
					return nil, errors.New("the hit path compiled")
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if warm := c.Snapshot(); warm.Compiles != s.Compiles || warm.Misses != s.Misses {
		t.Errorf("warm phase: %d new compiles, %d new misses", warm.Compiles-s.Compiles, warm.Misses-s.Misses)
	}
}

// TestRegisterTelemetry: a named cache's counters read live through the
// registry's text rendering.
func TestRegisterTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Config{MaxEntries: 1})
	c.RegisterTelemetry(reg, "t")
	var n atomic.Int64
	c.GetOrCompile("a", fake(&n, 4))
	c.GetOrCompile("a", fake(&n, 4))
	c.GetOrCompile("b", fake(&n, 4))
	got := reg.TextString()
	for _, want := range []string{"codecache_t_entries 1", "codecache_t_hits 1", "codecache_t_evictions 1"} {
		if !contains(got, want) {
			t.Errorf("dump missing %q:\n%s", want, got)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestInvalidate removes an entry explicitly and uninstalls it.
func TestInvalidate(t *testing.T) {
	m := newTestMachine(t)
	c := New(Config{Machine: m})
	fn, err := c.GetOrCompile("k", func() (*core.Func, error) { return buildAdder(t, 3), nil })
	if err != nil {
		t.Fatal(err)
	}
	if !c.Invalidate("k") {
		t.Fatal("Invalidate reported absent")
	}
	if c.Contains("k") || m.Installed(fn) {
		t.Error("entry survived Invalidate")
	}
	if c.Invalidate("k") {
		t.Error("second Invalidate reported present")
	}
}

// TestPanickingCompileClosesFlight rushes one key whose compile panics:
// the leader and every coalesced waiter must get a *CompilePanicError
// (not deadlock on the flight channel), and the key must stay retryable.
func TestPanickingCompileClosesFlight(t *testing.T) {
	c := New(Config{})
	const K = 16
	release := make(chan struct{})
	errs := make(chan error, K)
	for i := 0; i < K; i++ {
		go func() {
			_, err := c.GetOrCompile("bad", func() (*core.Func, error) {
				<-release
				panic("compiler bug")
			})
			errs <- err
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the waiters pile onto the flight
	close(release)
	for i := 0; i < K; i++ {
		select {
		case err := <-errs:
			var pe *CompilePanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *CompilePanicError", err)
			}
			if pe.Key != "bad" || pe.Value != "compiler bug" {
				t.Errorf("panic error contents: %+v", pe)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter deadlocked on panicked flight")
		}
	}
	if c.Contains("bad") {
		t.Error("panicked compile left a cached entry")
	}
	if got := c.Snapshot().CompilePanics; got == 0 {
		t.Error("CompilePanics metric not incremented")
	}
	var n atomic.Int64
	if _, err := c.GetOrCompile("bad", fake(&n, 4)); err != nil || n.Load() != 1 {
		t.Errorf("key not retryable after panic: err=%v compiles=%d", err, n.Load())
	}
}

// TestLookupTraceVerdicts: GetOrCompile emits one KindLookup span per
// outcome, with the verdict naming which path answered.
func TestLookupTraceVerdicts(t *testing.T) {
	trace.SetEnabled(true)
	trace.Reset()
	defer func() { trace.SetEnabled(false); trace.Reset() }()

	c := New(Config{})
	var n atomic.Int64
	if _, err := c.GetOrCompile("k1", fake(&n, 4)); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := c.GetOrCompile("k1", fake(&n, 4)); err != nil { // hit
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := c.GetOrCompile("bad", func() (*core.Func, error) { return nil, boom }); err == nil {
		t.Fatal("want compile error") // miss (failed)
	}

	got := map[string]int{}
	for _, s := range trace.Spans() {
		if s.Kind == trace.KindLookup {
			got[s.Attrs.Verdict]++
		}
	}
	if got["miss"] != 2 || got["hit"] != 1 || len(got) != 2 {
		t.Errorf("lookup verdicts = %v, want miss=2 hit=1", got)
	}
	for _, s := range trace.Spans() {
		if s.Kind == trace.KindLookup && s.Attrs.Verdict == "hit" && s.Name != "fake" {
			t.Errorf("hit span name = %q, want compiled function name", s.Name)
		}
	}
}

// TestFollowerSurvivesLeaderCancel: a compile that ends in its caller's own
// cancellation or deadline is no verdict on the key.  The leader gets its
// error; a follower coalesced onto that flight does not — it goes round
// again and runs its own closure (ROADMAP 6e) — and nothing is remembered,
// so the next caller compiles too.
func TestFollowerSurvivesLeaderCancel(t *testing.T) {
	for _, gaveUp := range []error{context.Canceled, context.DeadlineExceeded} {
		c := New(Config{})
		entered, giveUp := make(chan struct{}), make(chan struct{})
		leaderErr := make(chan error, 1)
		go func() {
			_, err := c.GetOrCompile("k", func() (*core.Func, error) {
				close(entered)
				<-giveUp
				return nil, fmt.Errorf("waiting for a compile slot: %w", gaveUp)
			})
			leaderErr <- err
		}()
		<-entered
		var own atomic.Int64
		followerFn := make(chan *core.Func, 1)
		go func() {
			fn, err := c.GetOrCompile("k", fake(&own, 4))
			if err != nil {
				t.Errorf("follower of a leader that ended in %v: %v, want its own compile", gaveUp, err)
			}
			followerFn <- fn
		}()
		for deadline := time.Now().Add(5 * time.Second); c.Snapshot().Coalesced != 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the follower never joined the leader's flight")
			}
		}
		close(giveUp)
		if err := <-leaderErr; !errors.Is(err, gaveUp) {
			t.Fatalf("leader: err = %v, want %v", err, gaveUp)
		}
		if fn := <-followerFn; fn == nil || own.Load() != 1 || !c.Contains("k") {
			t.Fatalf("follower: fn %v after %d compiles of its own, resident %v; want a function from 1", fn, own.Load(), c.Contains("k"))
		}
		if m := c.Snapshot(); m.Misses != 2 || m.Coalesced != 1 || m.Compiles != 1 || m.CompileErrors != 1 {
			t.Errorf("%+v: want 2 misses (leader, follower), 1 coalesced, 1 compile, 1 compile error", m)
		}
		c.Invalidate("k")
		if _, err := c.GetOrCompile("k", fake(&own, 4)); err != nil || own.Load() != 2 {
			t.Errorf("next caller: err = %v after %d compiles, want its own compile", err, own.Load())
		}
	}
}

// TestInstalledLooseFunctionIsRefused: the cache owns what it holds, so a
// compile callback that hands it a function the client installed itself is
// refused with core.ErrOwned and the function stays the client's; taken off
// the machine by its owner, the same function is adopted as a unit of one.
func TestInstalledLooseFunctionIsRefused(t *testing.T) {
	m := newTestMachine(t)
	base := m.ArenaStats()
	c := New(Config{Machine: m})
	fn := buildAdder(t, 1)
	if err := m.Install(fn); err != nil {
		t.Fatal(err)
	}
	mine := m.ArenaStats()
	if _, err := c.GetOrCompile("k", func() (*core.Func, error) { return fn, nil }); !errors.Is(err, core.ErrOwned) {
		t.Fatalf("installed loose function: err = %v, want core.ErrOwned", err)
	}
	if c.Contains("k") || !m.Installed(fn) || fn.Unit() != nil || m.ArenaStats() != mine {
		t.Fatalf("refusal changed something: resident %v, installed %v, unit %v", c.Contains("k"), m.Installed(fn), fn.Unit())
	}
	if err := m.Uninstall(fn); err != nil {
		t.Fatal(err)
	}
	if got, err := c.GetOrCompile("k", func() (*core.Func, error) { return fn, nil }); err != nil || got != fn || fn.Unit() == nil {
		t.Fatalf("function nobody has placed: %v, %v, unit %v; want it adopted", got, err, fn.Unit())
	}
	if s, st := c.Snapshot(), m.ArenaStats(); s.Entries != 1 || s.CodeBytes != int64(fn.SizeBytes()) || st.Funcs != base.Funcs+1 {
		t.Errorf("adopted: cache books %d entries, %d bytes, machine %d functions; want 1, %d, %d", s.Entries, s.CodeBytes, st.Funcs, fn.SizeBytes(), base.Funcs+1)
	}
	c.Invalidate("k")
	if _, err := m.Call(fn, core.I(1)); !errors.Is(err, core.ErrUnloaded) || m.ArenaStats() != base {
		t.Errorf("after Invalidate: call err = %v, arenas %+v; want ErrUnloaded and %+v", err, m.ArenaStats(), base)
	}
}
