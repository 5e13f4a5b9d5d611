package regtest

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// codeBase is where a fresh machine places its first function.
const codeBase = 0x1000

// buildSum compiles "f(x) = x + n*k" as n adds under name: n sets the size.
func buildSum(t testing.TB, tg Target, name string, n int, k int64) *core.Func {
	t.Helper()
	a := core.NewAsm(tg.Backend)
	a.SetName(name)
	args, err := a.BeginTypes([]core.Type{core.TypeI}, core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a.Addii(args[0], args[0], k)
	}
	a.Reti(args[0])
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// codeSize is the code-region reservation an install of f takes.
func codeSize(f *core.Func) uint64 { return (uint64(f.SizeBytes()) + 15) &^ 15 }

// overlap reports the first two spans that overlap or are out of order.
func overlap(spans []core.FuncSpan) error {
	for i := 1; i < len(spans); i++ {
		if a, b := spans[i-1], spans[i]; a.End > b.Start {
			return fmt.Errorf("%q [%#x,%#x) overlaps %q [%#x,%#x)", a.Name, a.Start, a.End, b.Name, b.Start, b.End)
		}
	}
	return nil
}

// call is f(10), the argument every function in this file is called with.
func call(m *core.Machine, f *core.Func) (int64, error) {
	v, err := m.Call(f, core.I(10))
	return v.Int(), err
}

// Release takes what it reclaims: every function whose code reaches above
// the mark is no longer installed afterwards, whoever holds a handle to it,
// and a call of that handle is ErrUnloaded.  Before, a released function
// still claimed to be installed, so its handle ran whatever was placed at
// its old address next, and its Uninstall freed that occupant's code; and
// a function placed across the mark (in the hole an Uninstall left below
// it) kept running while the next install landed inside it.
func TestReleaseTakesWhatItReclaims(t *testing.T) {
	for _, tg := range Targets() {
		t.Run(tg.Name, func(t *testing.T) {
			t.Run("stale handle", func(t *testing.T) {
				m := tg.NewMachine()
				mk := m.Mark()
				f1 := buildAdd(t, tg, 1)
				if err := m.Install(f1); err != nil {
					t.Fatal(err)
				}
				old := f1.Addr()
				m.Release(mk)
				if m.Installed(f1) || f1.Installed() {
					t.Errorf("f1 still claims to be installed after the Release that took it")
				}
				f2 := buildAdd(t, tg, 1000)
				if err := m.Install(f2); err != nil {
					t.Fatal(err)
				}
				if f2.Addr() != old {
					t.Fatalf("f2 at %#x, want the released %#x", f2.Addr(), old)
				}
				if v, err := call(m, f1); !errors.Is(err, core.ErrUnloaded) {
					t.Errorf("f1(10) = %d, %v after f2 took its address; want ErrUnloaded", v, err)
				}
				if v, err := call(m, f2); err != nil || v != 1010 {
					t.Errorf("f2(10) = %d, %v; want 1010", v, err)
				}
			})

			t.Run("uninstall of a released handle", func(t *testing.T) {
				m := tg.NewMachine()
				mk := m.Mark()
				f1, f2, f3 := buildAdd(t, tg, 1), buildAdd(t, tg, 1000), buildAdd(t, tg, 7)
				if err := m.Install(f1); err != nil {
					t.Fatal(err)
				}
				m.Release(mk)
				if err := m.Install(f2); err != nil {
					t.Fatal(err)
				}
				if err := m.Uninstall(f1); err != nil || !m.Installed(f2) {
					t.Errorf("Uninstall of the released f1: %v, f2 at %#x resident %v; want nil and f2 untouched", err, f2.Addr(), m.Installed(f2))
				}
				if err := m.Install(f3); err != nil {
					t.Fatal(err)
				}
				if v, err := call(m, f2); err != nil || v != 1010 {
					t.Errorf("f2(10) = %d, %v after f3 installed at %#x; want 1010", v, err, f3.Addr())
				}
				st := m.ArenaStats()
				if want := codeSize(f2) + codeSize(f3); st.Funcs != 2 || st.CodeBytesResident != want {
					t.Errorf("arenas %+v; want 2 functions in %d bytes", st, want)
				}
			})

			t.Run("function across the mark", func(t *testing.T) {
				m := tg.NewMachine()
				a, b, d := buildAdd(t, tg, 1), buildAdd(t, tg, 2), buildAdd(t, tg, 3)
				c := buildSum(t, tg, "c", 12, 3)
				for _, f := range []*core.Func{a, b} {
					if err := m.Install(f); err != nil {
						t.Fatal(err)
					}
				}
				mark := b.Addr() + codeSize(b)
				mk := m.Mark()
				if err := m.Uninstall(b); err != nil {
					t.Fatal(err)
				}
				if err := m.Install(c); err != nil {
					t.Fatal(err)
				}
				if c.Addr() >= mark || c.Addr()+codeSize(c) <= mark {
					t.Fatalf("c at [%#x,%#x) does not cross the mark %#x", c.Addr(), c.Addr()+codeSize(c), mark)
				}
				m.Release(mk)
				if err := m.Install(d); err != nil {
					t.Fatal(err)
				}
				for _, w := range []struct {
					f    *core.Func
					want int64
				}{{a, 11}, {d, 13}} {
					if v, err := call(m, w.f); err != nil || v != w.want {
						t.Errorf("%s(10) = %d, %v; want %d (d at %#x)", w.f.Name, v, err, w.want, d.Addr())
					}
				}
				if v, err := call(m, c); !errors.Is(err, core.ErrUnloaded) {
					t.Errorf("c(10) = %d, %v after the Release took it; want ErrUnloaded", v, err)
				}
				if err := overlap(m.FuncSpans()); err != nil {
					t.Error(err)
				}
			})

			t.Run("unit above the mark", func(t *testing.T) {
				m := tg.NewMachine()
				base := m.ArenaStats()
				u := m.NewUnit()
				g1, g2 := buildSum(t, tg, "g1", 1, 1), buildSum(t, tg, "g2", 1, 2)
				if err := u.Install(g1); err != nil {
					t.Fatal(err)
				}
				mk := m.Mark()
				if err := u.Install(g2); err != nil {
					t.Fatal(err)
				}
				m.Release(mk)
				for _, g := range []*core.Func{g1, g2} {
					if v, err := call(m, g); !errors.Is(err, core.ErrUnloaded) {
						t.Errorf("%s(10) = %d, %v after the Release took its unit; want ErrUnloaded", g.Name, v, err)
					}
				}
				u.Unload()
				if st := m.ArenaStats(); st != base {
					t.Errorf("arenas %+v after Release and Unload; want %+v", st, base)
				}
			})
		})
	}
}

// modelFn is one function as the model sees it.
type modelFn struct {
	f          *core.Func
	want       int64 // f(10)
	size, addr uint64
	unit       *modelUnit // the program that placed it last; nil until one has
	live       bool
}

type modelUnit struct {
	u        *core.Unit // nil for a unit of one that Install or a first call made
	members  []*modelFn
	unloaded bool
}

// regionModel is the code region's placement policy written down
// independently of the machine: a function goes at the lowest of codeBase
// and the live functions' ends where its bytes are free (first fit, else
// the top); Install, or the first call of a function never placed, makes
// it a unit of one; Uninstall and Release take a function's whole unit,
// Release every one reaching above the mark; and a call never places a
// function that left.
type regionModel struct {
	fns []*modelFn // the pool, then the members of units not unloaded
	// What the Releases took: functions, those of them placed across the
	// mark, and units.
	taken, across, units int
}

func (md *regionModel) free(lo, hi uint64) bool {
	for _, f := range md.fns {
		if f.live && f.addr < hi && lo < f.addr+f.size {
			return false
		}
	}
	return true
}

func (md *regionModel) place(f *modelFn) {
	f.addr = md.top()
	for _, g := range append([]*modelFn{{}}, md.fns...) {
		if c := max(codeBase, g.addr+g.size); (g.f == nil || g.live) && c < f.addr && md.free(c, c+f.size) {
			f.addr = c
		}
	}
	f.live = true
}

func (md *regionModel) top() uint64 {
	top := uint64(codeBase)
	for _, f := range md.fns {
		if f.live {
			top = max(top, f.addr+f.size)
		}
	}
	return top
}

func (md *regionModel) unload(u *modelUnit) {
	u.unloaded = true
	for _, f := range u.members {
		f.live = false
	}
}

func (md *regionModel) release(mark uint64) {
	for _, f := range md.fns {
		if f.live && f.addr+f.size > mark {
			if f.addr < mark {
				md.across++
			}
			for _, g := range f.unit.members {
				if g.live {
					md.taken++
				}
			}
			md.units++
			md.unload(f.unit)
		}
	}
}

func (md *regionModel) stats(heap uint64) core.ArenaStats {
	live := md.live()
	st := core.ArenaStats{CodeBytesHighWater: md.top() - codeBase, HeapBytesUsed: heap}
	prev := uint64(codeBase)
	for _, f := range live {
		if f.addr > prev {
			st.FreeRegions++
		}
		st.CodeBytesResident += f.size
		st.Funcs++
		prev = f.addr + f.size
	}
	return st
}

// live returns the live functions by address.
func (md *regionModel) live() []*modelFn {
	var out []*modelFn
	for _, f := range md.fns {
		if f.live {
			out = append(out, f)
		}
	}
	slices.SortFunc(out, func(a, b *modelFn) int { return int(a.addr) - int(b.addr) })
	return out
}

// check holds the machine to the model: every function's residence and
// address, that a live unit of its program on this machine placed every
// resident function, the arena counters, the published spans, the
// predecoded bodies and every live function's result.
func (md *regionModel) check(m *core.Machine, heap uint64) error {
	live := md.live()
	for _, f := range md.fns {
		if m.Installed(f.f) != f.live || (f.live && f.f.Addr() != f.addr) {
			return fmt.Errorf("%s: installed %v at %#x, model says %v at %#x", f.f.Name, m.Installed(f.f), f.f.Addr(), f.live, f.addr)
		}
	}
	for _, f := range live {
		u := f.f.Unit()
		if u == nil || !slices.Contains(u.Funcs(), f.f) || len(u.Funcs()) != len(f.unit.members) || (f.unit.u != nil && u != f.unit.u) {
			return fmt.Errorf("%s is resident, but no live unit of its %d-function program placed it (unit %p)", f.f.Name, len(f.unit.members), u)
		}
	}
	if st, want := m.ArenaStats(), md.stats(heap); st != want {
		return fmt.Errorf("arenas %+v, model %+v", st, want)
	}
	spans := m.FuncSpans()
	if err := overlap(spans); err != nil {
		return err
	}
	spans = slices.DeleteFunc(slices.Clone(spans), func(s core.FuncSpan) bool { return s.Start < codeBase })
	if len(spans) != len(live) {
		return fmt.Errorf("%d function spans, model has %d live functions", len(spans), len(live))
	}
	for i, s := range spans {
		if f := live[i]; s != (core.FuncSpan{Start: f.addr, End: f.addr + f.size, Name: f.f.Name}) {
			return fmt.Errorf("span %d is %+v, model has %s at [%#x,%#x)", i, s, f.f.Name, f.addr, f.addr+f.size)
		}
	}
	if n := m.PredecodedBodies(); n != len(live) {
		return fmt.Errorf("%d predecoded bodies for %d live functions", n, len(live))
	}
	for _, f := range live {
		if v, err := call(m, f.f); err != nil || v != f.want {
			return fmt.Errorf("%s(10) = %d, %v; want %d", f.f.Name, v, err, f.want)
		}
	}
	return nil
}

// TestCodeRegionAgainstModel drives each target's machine through a seeded
// stream of installs of varied sizes, uninstalls, nested Mark/Release,
// unit installs and unloads and calls, and holds it to regionModel after
// every operation.  The "install-uninstall" stream uses neither Mark nor
// multi-function units; its placement hash (every address and arena
// counter, op by op) is the same before and after the region table
// replaced the free list, and before and after Install made units of one.
func TestCodeRegionAgainstModel(t *testing.T) {
	ops := 20000
	if testing.Short() {
		ops = 2000
	}
	for _, tg := range Targets() {
		for _, full := range []bool{false, true} {
			name := tg.Name + "/install-uninstall"
			if full {
				name = tg.Name + "/mark-release-units"
			}
			t.Run(name, func(t *testing.T) { runRegionModel(t, tg, ops, full) })
		}
	}
}

func runRegionModel(t *testing.T, tg Target, ops int, full bool) {
	rng := rand.New(rand.NewSource(25))
	m := tg.NewMachine()
	heap := m.ArenaStats().HeapBytesUsed
	md := &regionModel{}
	nextK := int64(1)
	newFn := func(name string, unit *modelUnit) *modelFn {
		n, k := 1+rng.Intn(12), nextK%97+1
		nextK++
		f := buildSum(t, tg, name, n, k)
		return &modelFn{f: f, want: 10 + int64(n)*k, size: codeSize(f), unit: unit}
	}
	const pool = 24
	for i := 0; i < pool; i++ {
		md.fns = append(md.fns, newFn(fmt.Sprintf("p%d", i), nil))
	}
	var units []*modelUnit
	type mark struct {
		mk  core.Mark
		top uint64
	}
	var marks []mark
	// drop forgets the unloaded units once their members answer ErrUnloaded.
	drop := func() error {
		for _, u := range units {
			for _, f := range u.members {
				if _, err := call(m, f.f); u.unloaded && !errors.Is(err, core.ErrUnloaded) {
					return fmt.Errorf("%s of an unloaded unit: call err %v", f.f.Name, err)
				}
			}
		}
		md.fns = append(md.fns[:pool], slices.DeleteFunc(md.fns[pool:], func(f *modelFn) bool { return f.unit.unloaded })...)
		units = slices.DeleteFunc(units, func(u *modelUnit) bool { return u.unloaded })
		return nil
	}
	// placeOne is an Install, or the first call, of a pool function the
	// model says is not resident: a unit of one.
	placeOne := func(f *modelFn) {
		f.unit = &modelUnit{members: []*modelFn{f}}
		md.place(f)
	}
	h := fnv.New64a()
	for op := 0; op < ops; op++ {
		f := md.fns[rng.Intn(len(md.fns))]
		var what string
		var err error
		kinds := 100 // the install-uninstall stream draws from the first two
		if !full {
			kinds = 55
		}
		switch r := rng.Intn(kinds); {
		case r < 30:
			f = md.fns[rng.Intn(pool)]
			what = "install " + f.f.Name
			if !f.live {
				placeOne(f)
			}
			err = m.Install(f.f)
		case r < 55:
			what = "uninstall " + f.f.Name
			if err = m.Uninstall(f.f); (err == nil) != (f.unit != nil) {
				err = fmt.Errorf("Uninstall = %v with the model saying placed=%v", err, f.unit != nil)
			} else if err = nil; f.unit != nil {
				md.unload(f.unit)
			}
		case r < 65:
			what = "call " + f.f.Name
			if f.unit == nil {
				placeOne(f)
			}
			var v int64
			if v, err = call(m, f.f); f.unit.unloaded {
				if !errors.Is(err, core.ErrUnloaded) {
					err = fmt.Errorf("= %d, %v from a function that left; want ErrUnloaded", v, err)
				} else {
					err = nil
				}
			} else if err == nil && v != f.want {
				err = fmt.Errorf("= %d, want %d", v, f.want)
			}
		case r < 73:
			if len(units) >= 6 {
				continue
			}
			u := &modelUnit{u: m.NewUnit()}
			var fns []*core.Func
			for i := 1 + rng.Intn(3); i > 0; i-- {
				mf := newFn(fmt.Sprintf("u%d.%d", op, i), u)
				u.members = append(u.members, mf)
				md.fns = append(md.fns, mf)
				fns = append(fns, mf.f)
				md.place(mf)
			}
			units = append(units, u)
			what = fmt.Sprintf("unit install of %d", len(fns))
			err = u.u.Install(fns...)
		case r < 80:
			if len(units) == 0 {
				continue
			}
			u := units[rng.Intn(len(units))]
			what = "unload " + u.members[0].f.Name
			md.unload(u)
			u.u.Unload()
		case r < 90:
			if len(marks) >= 4 {
				continue
			}
			what = "mark"
			marks = append(marks, mark{m.Mark(), md.top()})
		default:
			if len(marks) == 0 {
				continue
			}
			i := rng.Intn(len(marks))
			what = fmt.Sprintf("release of mark %d at %#x", i, marks[i].top)
			md.release(marks[i].top)
			m.Release(marks[i].mk)
			marks = marks[:i]
		}
		if err == nil {
			err = md.check(m, heap)
		}
		if err == nil {
			err = drop()
		}
		if err != nil {
			t.Fatalf("op %d (%s): %v", op, what, err)
		}
		st := m.ArenaStats()
		fmt.Fprintf(h, "%d %d %d %d;", st.CodeBytesResident, st.CodeBytesHighWater, st.FreeRegions, st.Funcs)
		for _, f := range md.fns {
			fmt.Fprintf(h, "%#x ", f.f.Addr())
		}
	}
	t.Logf("placement hash %016x over %d ops; Releases took %d functions (%d across the mark) and %d units",
		h.Sum64(), ops, md.taken, md.across, md.units)
}
