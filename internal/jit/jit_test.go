package jit

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/codecache"
	"repro/internal/codecache/cachetest"
	"repro/internal/mem"
	"repro/internal/regtest"
)

func refFib(n int32) int32 {
	a, b := int32(0), int32(1)
	for ; n > 0; n-- {
		a, b = b, a+b
	}
	return a
}

func TestInterpSamples(t *testing.T) {
	for _, tc := range []struct {
		f    *Func
		args []int32
		want int32
	}{
		{FibIter(), []int32{10}, 55},
		{FibIter(), []int32{0}, 0},
		{SumSquares(), []int32{5}, 55},
		{Gcd(), []int32{1071, 462}, 21},
		{Poly(), []int32{10}, 267},
	} {
		got, _, err := Interp(tc.f, tc.args...)
		if err != nil {
			t.Fatalf("%s: %v", tc.f.Name, err)
		}
		if got != tc.want {
			t.Errorf("interp %s%v = %d, want %d", tc.f.Name, tc.args, got, tc.want)
		}
	}
}

// TestJITAgreesWithInterp compiles every sample and cross-checks against
// interpretation over a range of inputs.
func TestJITAgreesWithInterp(t *testing.T) {
	m := NewMachine(mem.DEC5000)
	for _, f := range []*Func{FibIter(), SumSquares(), Gcd(), Poly()} {
		fn, err := m.Compile(f)
		if err != nil {
			t.Fatalf("compile %s: %v", f.Name, err)
		}
		for trial := int32(0); trial < 12; trial++ {
			args := make([]int32, f.NArgs)
			for i := range args {
				args[i] = trial*7 + int32(i) + 1
			}
			want, _, err := Interp(f, args...)
			if err != nil {
				t.Fatalf("interp %s: %v", f.Name, err)
			}
			got, _, err := m.Run(fn, args...)
			if err != nil {
				t.Fatalf("run %s: %v", f.Name, err)
			}
			if got != want {
				t.Errorf("%s%v: jit %d, interp %d", f.Name, args, got, want)
			}
		}
	}
}

// TestJITQuickFib property-tests fib over its defined range.
func TestJITQuickFib(t *testing.T) {
	m := NewMachine(mem.DEC5000)
	fn, err := m.Compile(FibIter())
	if err != nil {
		t.Fatal(err)
	}
	f := func(n uint8) bool {
		x := int32(n % 40)
		got, _, err := m.Run(fn, x)
		return err == nil && got == refFib(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestJITSpeedup pins the motivating result: compiled code beats the
// interpreter by several-fold under the same cost model.
func TestJITSpeedup(t *testing.T) {
	m := NewMachine(mem.DEC5000)
	f := FibIter()
	fn, err := m.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	_, icycles, err := Interp(f, 30)
	if err != nil {
		t.Fatal(err)
	}
	_, ccycles, err := m.Run(fn, 30)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(icycles) / float64(ccycles); ratio < 4 {
		t.Errorf("JIT speedup only %.1fx (interp %d vs compiled %d cycles)", ratio, icycles, ccycles)
	}
}

// TestValidateErrors exercises the verifier.
func TestValidateErrors(t *testing.T) {
	bad := []*Func{
		{Name: "underflow", Code: []Insn{{OpAdd, 0}, {OpRet, 0}}, Consts: []int32{0}},
		{Name: "offend", Code: []Insn{{OpPushK, 0}}, Consts: []int32{0}},
		{Name: "badconst", Code: []Insn{{OpPushK, 3}, {OpRet, 0}}, Consts: []int32{0}},
		{Name: "badjump", Code: []Insn{{OpJmp, 99}}},
		{Name: "depthjoin", Consts: []int32{0, 1},
			Code: []Insn{
				{OpPushK, 0}, {OpJz, 3}, {OpPushK, 1}, // join at 3 with depth 0 vs 1
				{OpPushK, 0}, {OpRet, 0},
			}},
	}
	for _, f := range bad {
		if _, err := f.Validate(); err == nil {
			t.Errorf("%s validated without error", f.Name)
		}
	}
}

// TestAdaptive checks the interpret-then-compile lifecycle: cold calls
// interpret, the threshold triggers compilation, and results never
// change across the transition.
func TestAdaptive(t *testing.T) {
	m := NewMachine(mem.DEC5000)
	ad := NewAdaptive(m, 5)
	f := FibIter()
	var coldCycles, hotCycles uint64
	for i := 0; i < 10; i++ {
		got, cycles, err := ad.Call(f, 20)
		if err != nil {
			t.Fatal(err)
		}
		if got != refFib(20) {
			t.Fatalf("call %d: got %d", i, got)
		}
		wantCompiled := i >= 5
		if ad.Compiled(f) != wantCompiled {
			t.Fatalf("call %d: compiled=%v, want %v", i, ad.Compiled(f), wantCompiled)
		}
		if i == 0 {
			coldCycles = cycles
		}
		if i == 9 {
			hotCycles = cycles
		}
	}
	if hotCycles*2 >= coldCycles {
		t.Errorf("compiled calls should be much cheaper: cold %d, hot %d", coldCycles, hotCycles)
	}
	if ad.Calls(f) != 10 {
		t.Errorf("call count %d", ad.Calls(f))
	}
}

// TestJITOnAllTargets retargets the bytecode compiler and checks results
// agree across ports.
func TestJITOnAllTargets(t *testing.T) {
	for _, target := range []string{"mips", "sparc", "alpha"} {
		m, err := NewMachineTarget(target, mem.Uncosted)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []*Func{FibIter(), SumSquares(), Gcd(), Poly()} {
			fn, err := m.Compile(f)
			if err != nil {
				t.Fatalf("%s/%s: %v", target, f.Name, err)
			}
			if err := regtest.CheckRows(m.backend, fn); err != nil {
				t.Error(err)
			}
			args := []int32{17}
			if f.NArgs == 2 {
				args = []int32{84, 18}
			}
			want, _, err := Interp(f, args...)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := m.Run(fn, args...)
			if err != nil {
				t.Fatalf("%s/%s: %v", target, f.Name, err)
			}
			if got != want {
				t.Errorf("%s/%s%v = %d, interp %d", target, f.Name, args, got, want)
			}
		}
	}
}

// TestAdaptiveConcurrent promotes the same functions from many
// goroutines: results must stay correct, and single-flight must collapse
// the racing promotions into one compile per distinct function
// (meaningful chiefly under -race).
func TestAdaptiveConcurrent(t *testing.T) {
	m := NewMachine(mem.DEC5000)
	ad := NewAdaptive(m, 3)
	progs := []*Func{FibIter(), SumSquares(), Gcd()}
	wantFib, wantSum := refFib(15), int32(0)
	for i := int32(1); i <= 15; i++ {
		wantSum += i * i
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				f := progs[(w+i)%len(progs)]
				var got, want int32
				var err error
				switch f {
				case progs[0]:
					got, _, err = ad.Call(f, 15)
					want = wantFib
				case progs[1]:
					got, _, err = ad.Call(f, 15)
					want = wantSum
				default:
					got, _, err = ad.Call(f, 36, 24)
					want = 12
				}
				if err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("%s: got %d, want %d", f.Name, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	s := ad.Metrics()
	if s.Compiles != uint64(len(progs)) {
		t.Errorf("compiles = %d, want %d (single-flight must coalesce)", s.Compiles, len(progs))
	}
	if total := int(s.Hits + s.Misses + s.Coalesced); total == 0 {
		t.Error("no cache traffic recorded")
	}
	if ad.Calls(progs[0]) == 0 {
		t.Error("call counting lost under concurrency")
	}
}

// TestConcurrentEvictionLeavesNoOrphans: four goroutines call four functions
// through a one-entry cache, so nearly every call evicts the function some
// other goroutine is about to run.  Every result is right, and at the end
// the machine holds the cache's one entry and nothing else: an evicted
// function is ErrUnloaded to the caller that lost the race, who asks the
// cache again — it is never put back on the machine behind the cache's
// back, where nothing would ever remove it.
func TestConcurrentEvictionLeavesNoOrphans(t *testing.T) {
	m := NewMachine(mem.Uncosted)
	base := m.Core().ArenaStats()
	cache := codecache.New(codecache.Config{Machine: m.Core(), MaxEntries: 1})
	ad := NewAdaptiveCache(m, 0, cache)
	const workers, calls, arg = 4, 3000, 10
	var wg sync.WaitGroup
	for g := int32(0); g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := Synthetic(g)
			for i := 0; i < calls; i++ {
				if got, _, err := ad.Call(f, arg); err != nil || got != 385+arg*g {
					t.Errorf("%s(%d), call %d: %d, %v; want %d", f.Name, arg, i, got, err, 385+arg*g)
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := cache.Snapshot(); s.Entries != 1 || s.Evictions == 0 {
		t.Errorf("%d entries after %d evictions: the churn this test is about did not happen", s.Entries, s.Evictions)
	}
	cachetest.Ledger(t, cache, m.Core(), base)
}

// TestConcurrentRunCycles pins the statistics fix: per-call cycle counts
// come from CallStats deltas taken under the machine lock, so concurrent
// Runs of a deterministic function must all report the identical cost —
// with the old reset-the-CPU-counters scheme, interleaved calls would
// corrupt each other's numbers.
func TestConcurrentRunCycles(t *testing.T) {
	m := NewMachine(mem.DEC5000)
	fn, err := m.Compile(Synthetic(1))
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := m.Run(fn, 50)
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("baseline call reported zero cycles")
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, cycles, err := m.Run(fn, 50)
				if err != nil {
					t.Error(err)
					return
				}
				if cycles != want {
					t.Errorf("concurrent call cost %d cycles, want %d", cycles, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInterpCountedBackedges: FibIter's loop takes one backward jump per
// iteration, so fib(n) interprets with exactly n backedges; straight-line
// code takes none.
func TestInterpCountedBackedges(t *testing.T) {
	_, _, backedges, err := InterpCounted(FibIter(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if backedges != 20 {
		t.Errorf("fib(20) backedges = %d, want 20", backedges)
	}
	_, _, backedges, err = InterpCounted(Poly(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if backedges != 0 {
		t.Errorf("poly backedges = %d, want 0 (straight-line)", backedges)
	}
	// Interp must agree with InterpCounted on results and cycles.
	r1, c1, err := Interp(FibIter(), 20)
	if err != nil {
		t.Fatal(err)
	}
	r2, c2, _, err := InterpCounted(FibIter(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || c1 != c2 {
		t.Errorf("Interp (%d, %d) disagrees with InterpCounted (%d, %d)", r1, c1, r2, c2)
	}
}

// TestAdaptiveBlockPromotion: with a call threshold that would never
// trigger, block heat alone must promote a function whose single call
// spins a long loop — the paper's motivating case for profile-directed
// compilation.
func TestAdaptiveBlockPromotion(t *testing.T) {
	m := NewMachine(mem.DEC5000)
	ad := NewAdaptive(m, 1<<30) // call count alone never promotes
	ad.BlockThreshold = 50

	f := FibIter()
	if _, _, err := ad.Call(f, 100); err != nil { // 100 backedges >= 50
		t.Fatal(err)
	}
	if ad.Compiled(f) {
		t.Fatal("compiled during the first (interpreted) call")
	}
	got, _, err := ad.Call(f, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !ad.Compiled(f) {
		t.Errorf("block heat %d >= %d did not promote", ad.Blocks().GetByName(f.Name), ad.BlockThreshold)
	}
	if got != refFib(20) {
		t.Errorf("post-promotion result %d, want %d", got, refFib(20))
	}

	// Cold loops below the threshold must keep interpreting.
	g := SumSquares()
	for i := 0; i < 3; i++ {
		if _, _, err := ad.Call(g, 10); err != nil { // 10 backedges/call
			t.Fatal(err)
		}
	}
	if ad.Compiled(g) {
		t.Errorf("block heat %d < %d promoted anyway", ad.Blocks().GetByName(g.Name), ad.BlockThreshold)
	}

	// Disabled (zero) threshold: never promotes on blocks.
	ad2 := NewAdaptive(m, 1<<30)
	if _, _, err := ad2.Call(FibIter(), 1000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ad2.Call(FibIter(), 1000); err != nil {
		t.Fatal(err)
	}
	if ad2.Compiled(FibIter()) {
		t.Error("BlockThreshold=0 must disable block promotion")
	}
}
