package core_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// churnCost installs resident functions, then measures allocations and
// bytes per install+uninstall cycle of one more.  The churned code sits in
// the middle of the address map: half the residents are installed after a
// placeholder that is then uninstalled, so the cycle reuses its hole.
func churnCost(t *testing.T, resident int) (allocs, bytes float64) {
	t.Helper()
	bk, m := newMips()
	res := make([]*core.Func, resident)
	for i := range res {
		res[i] = buildAddK(t, bk, int64(i))
	}
	churn := buildAddK(t, bk, 9000)
	install := func(fns ...*core.Func) {
		for i, f := range fns {
			if err := m.Install(f); err != nil {
				t.Fatalf("install %d: %v", i, err)
			}
		}
	}
	install(res[:resident/2]...)
	install(churn)
	install(res[resident/2:]...)
	uninstall := func() {
		if err := m.Uninstall(churn); err != nil {
			t.Fatal(err)
		}
	}
	uninstall()

	cycle := func() {
		install(churn)
		uninstall()
	}
	cycle() // let the region table reach its steady size
	const runs = 200
	allocs = testing.AllocsPerRun(runs, cycle)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if a := m.ArenaStats(); a.Funcs != resident {
		t.Fatalf("%d functions resident after the churn, want %d", a.Funcs, resident)
	}
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// An install or an evict edits the address map in place, so what a cycle
// allocates must not grow with the number of resident functions.  At the
// parent commit every change copied the whole map: an Install+Uninstall
// cycle allocated 145 KB at 2,048 residents where it allocated 2.6 KB at 16.
//
// The cycle is also held to what it allocated before install started
// recording each function's call plan (4 allocations and 776 B): the plan
// lives inline in the Func, so building it is free, and the unit of one
// Install now places the function in (a Unit and its member slice) is paid
// for by linking the words straight into memory, with no image buffer and
// no patch buffer when there is nothing to patch.
func TestInstallUninstallCostIndependentOfResidents(t *testing.T) {
	t.Run("Install", func(t *testing.T) {
		const maxAllocs, maxBytes = 4.0, 800.0
		smallAllocs, smallBytes := churnCost(t, 16)
		largeAllocs, largeBytes := churnCost(t, 2048)
		t.Logf("16 resident: %.1f allocs %.0f B; 2048 resident: %.1f allocs %.0f B",
			smallAllocs, smallBytes, largeAllocs, largeBytes)
		if largeAllocs > smallAllocs*1.1 {
			t.Errorf("allocs per cycle grew with residents: %.1f at 16, %.1f at 2048", smallAllocs, largeAllocs)
		}
		if largeBytes > smallBytes*1.1 {
			t.Errorf("bytes per cycle grew with residents: %.0f at 16, %.0f at 2048", smallBytes, largeBytes)
		}
		if smallAllocs > maxAllocs || smallBytes > maxBytes {
			t.Errorf("a cycle allocates %.1f times, %.0f B; before the call plan it was %.0f times, under %.0f B",
				smallAllocs, smallBytes, maxAllocs, maxBytes)
		}
	})
}

// buildCountdown generates fn(n) { while (n > 0) n--; return n }: long
// enough for a sampling hook to fire many times in one call.
func buildCountdown(t *testing.T, bk core.Backend) *core.Func {
	t.Helper()
	a := core.NewAsm(bk)
	a.SetName("countdown")
	args, err := a.Begin("%i", core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	loop := a.NewLabel()
	a.Bind(loop)
	a.Subii(args[0], args[0], 1)
	a.Bgtii(args[0], 0, loop)
	a.Reti(args[0])
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// checkSpans reports the first way spans fails to be a Start-sorted,
// non-overlapping map that names want at pc (want "" skips the lookup).
func checkSpans(spans []core.FuncSpan, pc uint64, want string) error {
	found := want == ""
	for i, s := range spans {
		if s.End <= s.Start {
			return fmt.Errorf("span %d %q is empty: [%#x,%#x)", i, s.Name, s.Start, s.End)
		}
		if i > 0 && spans[i-1].End > s.Start {
			return fmt.Errorf("span %d %q [%#x,%#x) overlaps or precedes %q ending %#x",
				i, s.Name, s.Start, s.End, spans[i-1].Name, spans[i-1].End)
		}
		if s.Name == want && pc >= s.Start && pc < s.End {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("no span names %q at pc %#x (%d spans)", want, pc, len(spans))
	}
	return nil
}

// The sampling hook runs inside the simulator with Machine.mu held by the
// call, while another goroutine installs and evicts between calls and a
// third reads with no lock at all.  Every snapshot any of them sees must be
// a consistent map, and the hook's must contain the function it
// interrupted.  Run under -race.
func TestSpanSnapshotsUnderChurn(t *testing.T) {
	bk, m := newMips()
	hot := buildCountdown(t, bk)
	if err := m.Install(hot); err != nil {
		t.Fatal(err)
	}

	var samples atomic.Int64
	var hookErr atomic.Pointer[error]
	fail := func(err error) { hookErr.CompareAndSwap(nil, &err) }
	if err := m.SetSampler(func(pc uint64) {
		samples.Add(1)
		if name, ok := m.SymbolizePC(pc); !ok || name != "countdown" {
			fail(fmt.Errorf("SymbolizePC(%#x) = %q, %v inside countdown", pc, name, ok))
		}
		if err := checkSpans(m.FuncSpans(), pc, "countdown"); err != nil {
			fail(err)
		}
	}, 16); err != nil {
		t.Fatal(err)
	}

	fns := make([]*core.Func, 12)
	for i := range fns {
		fns[i] = buildAddK(t, bk, int64(i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: installs and evicts
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, f := range fns {
				if err := m.Install(f); err != nil {
					t.Error(err)
					return
				}
			}
			for i := range fns { // evict out of address order
				if err := m.Uninstall(fns[(i*5)%len(fns)]); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // reader outside any call: races the writer for real
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := checkSpans(m.FuncSpans(), 0, ""); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()

	for i := 0; i < 300; i++ {
		if v, err := m.Call(hot, core.I(200)); err != nil || v.Int() != 0 {
			t.Fatalf("call %d = %v, %v", i, v, err)
		}
	}
	close(stop)
	wg.Wait()
	if p := hookErr.Load(); p != nil {
		t.Fatal(*p)
	}
	if samples.Load() == 0 {
		t.Fatal("the sampling hook never fired")
	}
}
