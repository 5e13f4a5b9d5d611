package diff

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/regtest"
)

// This file holds the run loop's branch fold to the switch engine: the programs
// it folds and declines on, and the sweeps that end the budget, probe the
// edges and fault around a folded branch.

// The slot buildFoldLoop gives its back-edge.  On Alpha, which has no
// slot, ScheduleDelay puts the instruction ahead of the branch instead.
const (
	slotNop  = iota // the generator's nop: the back-edge folds
	slotALU         // a plain instruction: the back-edge takes its handler
	slotLoad        // a load: the back-edge takes its handler
)

// buildFoldLoop generates fn(p, n, step), a loop of n trips around the
// 32 bytes at p whose transfers are all in-body branches:
//
//   - the back-edge's target is a load through q, which step moves every
//     trip (faultStep makes the second trip's, reached by the back-edge,
//     fault);
//   - a forward branch, taken on odd trips and not on even ones, skips
//     one instruction; the run before it ends by loading the register it
//     reads, so it pays a bubble handed across from the run, and its
//     target reads that register too, which costs nothing there: the load
//     is the branch (and its slot) behind;
//   - the run before the back-edge also ends by loading the register the
//     back-edge reads;
//   - the back-edge, taken on every trip but the last, has slot in its
//     delay slot.
func buildFoldLoop(bk core.Backend, slot int) (*core.Func, error) {
	a := core.NewAsm(bk)
	a.SetName("foldloop")
	args, err := a.BeginTypes([]core.Type{core.TypeP, core.TypeI, core.TypeP}, core.Leaf)
	if err != nil {
		return nil, err
	}
	p, n, step := args[0], args[1], args[2]
	var r [4]core.Reg
	for i := range r {
		if r[i], err = a.GetReg(core.Temp); err != nil {
			return nil, err
		}
	}
	acc, x, t, q := r[0], r[1], r[2], r[3]
	const I = core.TypeI
	a.SetI(I, acc, 0)
	a.Unary(core.OpMov, core.TypeP, q, p)
	top, skip := a.NewLabel(), a.NewLabel()
	a.Bind(top)
	a.LdI(I, x, q, 4)
	a.ALU(core.OpAdd, I, acc, acc, x)
	a.ALU(core.OpAdd, core.TypeP, q, q, step)
	a.ALUI(core.OpAnd, I, t, n, 1)
	a.StI(I, t, p, 24)
	a.LdI(I, t, p, 24)
	a.BrI(core.OpBne, I, t, 0, skip)
	a.ALUI(core.OpXor, I, acc, acc, 5)
	a.Bind(skip)
	a.ALU(core.OpAdd, I, acc, acc, t)
	a.ALUI(core.OpSub, I, n, n, 1)
	a.StI(I, n, p, 28)
	a.LdI(I, t, p, 28)
	branch := func() { a.BrI(core.OpBgt, I, t, 0, top) }
	switch slot {
	case slotNop:
		branch()
	case slotALU:
		a.ScheduleDelay(branch, func() { a.ALUI(core.OpAdd, I, acc, acc, 1) })
	case slotLoad:
		a.ScheduleDelay(branch, func() { a.LdI(I, x, p, 0) })
	}
	a.Ret(I, acc)
	return a.End()
}

// buildLandingStall generates fn(p, n): a loop of n trips whose first
// instruction reads what the instruction before the loop loads, so that
// on the ports with an interlock its Stall bit is set, and whose
// back-edge folds onto it.  Reached by falling through, it pays that
// bubble; as the landing of a taken fold it pays none.
func buildLandingStall(bk core.Backend) (*core.Func, error) {
	a := core.NewAsm(bk)
	a.SetName("landingstall")
	args, err := a.BeginTypes([]core.Type{core.TypeP, core.TypeI}, core.Leaf)
	if err != nil {
		return nil, err
	}
	p, n := args[0], args[1]
	var r [2]core.Reg
	for i := range r {
		if r[i], err = a.GetReg(core.Temp); err != nil {
			return nil, err
		}
	}
	acc, x := r[0], r[1]
	const I = core.TypeI
	a.SetI(I, acc, 0)
	a.LdI(I, x, p, 0)
	top := a.NewLabel()
	a.Bind(top)
	a.ALU(core.OpAdd, I, acc, acc, x)
	a.ALUI(core.OpSub, I, n, n, 1)
	a.BrI(core.OpBgt, I, n, 0, top)
	a.Ret(I, acc)
	return a.End()
}

// buildSelfBranch generates fn(n, m): it counts n up to 0 with a branch
// back to the body's first word, then, when m > 0, spins on a jump to
// itself until its fuel runs out.
func buildSelfBranch(bk core.Backend) (*core.Func, error) {
	a := core.NewAsm(bk)
	a.SetName("selfbranch")
	args, err := a.BeginTypes([]core.Type{core.TypeI, core.TypeI}, core.Leaf)
	if err != nil {
		return nil, err
	}
	n, m := args[0], args[1]
	const I = core.TypeI
	first, self, out := a.NewLabel(), a.NewLabel(), a.NewLabel()
	a.Bind(first)
	a.ALUI(core.OpAdd, I, n, n, 1)
	a.BrI(core.OpBlt, I, n, 0, first)
	a.BrI(core.OpBle, I, m, 0, out)
	a.Bind(self)
	a.Jmp(self)
	a.Bind(out)
	a.Ret(I, n)
	return a.End()
}

// folds returns the indices of body's instructions the run loop folds.
func folds(body *exec.Body) []int {
	var at []int
	for i := range body.Code {
		if body.Code[i].Flags&exec.FFold != 0 {
			at = append(at, i)
		}
	}
	return at
}

// TestDifferentialFold holds the run loop's branch fold to the switch engine.
// The loops fold on every target (SPARC's branches follow a compare,
// Alpha's have no slot); a back-edge with a plain instruction or a load in
// its slot must not fold on MIPS and SPARC.  Over every slot, a fuel sweep
// ends the budget on every instruction of three trips — on the branch and
// on its slot among them — and a stride sweep slices the windows there
// too; the target's first instruction faults when the back-edge reaches
// it; edge probes and samplers are attached.  State, error text, cycles,
// retired instructions, edge and sample streams must be identical.  A
// fold whose landing carries a Stall bit is pinned on its own: the budget
// ends at the branch, at its slot and at the landing among every other
// instruction of three trips, by fuel and by window.
func TestDifferentialFold(t *testing.T) {
	for _, tg := range regtest.Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			p := newPair(t, tg)
			bk := tg.Backend
			hasSlot := bk.BranchDelaySlots() > 0
			var buf uint64
			for _, m := range []*core.Machine{p.sw, p.th} {
				a, err := m.Alloc(32)
				if err != nil {
					t.Fatal(err)
				}
				if buf != 0 && a != buf {
					t.Fatalf("heap layouts diverged: %#x vs %#x", buf, a)
				}
				buf = a
				for i := uint64(0); i < 8; i++ {
					if err := m.Mem().Store(buf+4*i, 4, 0x01010101*(i+5)); err != nil {
						t.Fatal(err)
					}
				}
			}

			for slot, name := range []string{"nop slot", "plain slot", "load slot"} {
				slot := slot
				build := func() (*core.Func, error) { return buildFoldLoop(bk, slot) }
				fn, err := build()
				if err != nil {
					t.Fatal(err)
				}
				// The forward branch folds everywhere; the back-edge folds
				// where its slot is a nop or there is no slot.
				want := 2
				if hasSlot && slot != slotNop {
					want = 1
				}
				if got := folds(predecode(t, tg.NewMachine(), fn)); len(got) != want {
					t.Fatalf("%s: %d branches fold (at %v), want %d", name, len(got), got, want)
				}

				stay := []core.Value{core.P(buf), core.I(3), core.P(0)}
				p.run(t, name, build, core.CallOpts{}, true, stay...)
				for fuel := uint64(1); fuel <= 60; fuel++ {
					p.run(t, fmt.Sprintf("%s, fuel %d", name, fuel), build, core.CallOpts{Fuel: fuel}, true, stay...)
				}
				for stride := uint64(1); stride <= 16; stride++ {
					p.run(t, fmt.Sprintf("%s, stride %d", name, stride), build, core.CallOpts{PollStride: stride}, true, stay...)
				}
				err = p.run(t, name+", target faults", build, core.CallOpts{}, true,
					core.P(buf), core.I(3), core.P(faultStep))
				if err == nil || !strings.Contains(err.Error(), "out of range") {
					t.Fatalf("%s: the call ended with %v, want the back-edge's target to fault", name, err)
				}

				for _, stride := range []uint64{1, 2, 3} {
					type edge struct {
						pc    uint64
						taken bool
					}
					var edges [2][]edge
					var samples [2][]uint64
					for i, m := range []*core.Machine{p.sw, p.th} {
						i := i
						if err := m.SetEdgeProbe(func(pc uint64, taken bool) { edges[i] = append(edges[i], edge{pc, taken}) }, stride); err != nil {
							t.Fatal(err)
						}
					}
					probed := fmt.Sprintf("%s, edge probe %d", name, stride)
					p.run(t, probed, build, core.CallOpts{}, true, core.P(buf), core.I(5), core.P(0))
					p.run(t, probed+", fuel 23", build, core.CallOpts{Fuel: 23}, true, core.P(buf), core.I(5), core.P(0))
					for i, m := range []*core.Machine{p.sw, p.th} {
						i := i
						if err := m.SetSampler(func(pc uint64) { samples[i] = append(samples[i], pc) }, stride+4); err != nil {
							t.Fatal(err)
						}
					}
					p.run(t, probed+", sampler", build, core.CallOpts{}, true, core.P(buf), core.I(5), core.P(0))
					if len(edges[0]) == 0 || fmt.Sprint(edges[0]) != fmt.Sprint(edges[1]) {
						t.Fatalf("%s: edge streams diverged (or are empty):\nswitch:   %v\nthreaded: %v", probed, edges[0], edges[1])
					}
					if len(samples[0]) == 0 || fmt.Sprint(samples[0]) != fmt.Sprint(samples[1]) {
						t.Fatalf("%s: sample streams diverged (or are empty):\nswitch:   %x\nthreaded: %x", probed, samples[0], samples[1])
					}
					for _, m := range []*core.Machine{p.sw, p.th} {
						if err := m.SetEdgeProbe(nil, 0); err != nil {
							t.Fatal(err)
						}
						if err := m.SetSampler(nil, 0); err != nil {
							t.Fatal(err)
						}
					}
				}
			}

			landing := func() (*core.Func, error) { return buildLandingStall(bk) }
			fn, err := landing()
			if err != nil {
				t.Fatal(err)
			}
			body := predecode(t, tg.NewMachine(), fn)
			at := folds(body)
			if len(at) != 1 {
				t.Fatalf("landingstall: %d branches fold (at %v), want the back-edge", len(at), at)
			}
			if stall := body.Code[body.Code[at[0]].Target].Stall; stall != 1 && tg.Name != "sparc" {
				t.Fatalf("landingstall: the back-edge's target has Stall %d, want 1", stall)
			}
			for fuel := uint64(1); fuel <= 24; fuel++ {
				p.run(t, fmt.Sprintf("landingstall, fuel %d", fuel), landing, core.CallOpts{Fuel: fuel}, true,
					core.P(buf), core.I(3))
			}
			for stride := uint64(1); stride <= 8; stride++ {
				p.run(t, fmt.Sprintf("landingstall, stride %d", stride), landing, core.CallOpts{PollStride: stride}, true,
					core.P(buf), core.I(3))
			}

			// The function's first word is its entry, not index 0 of the
			// body it is installed as (a reserved prologue comes first), so
			// the branch back to it reaches index 0 only in the words from
			// the entry on, run on bare CPUs.
			build := func() (*core.Func, error) { return buildSelfBranch(bk) }
			if fn, err = build(); err != nil {
				t.Fatal(err)
			}
			words := fn.Words[fn.Entry:]
			body = tg.NewMachine().CPU().(core.ThreadedCPU).Predecode(words, 0x1000)
			var toFirst, toSelf bool
			for _, i := range folds(body) {
				toFirst = toFirst || body.Code[i].Target == 0
				toSelf = toSelf || int(body.Code[i].Target) == i
			}
			if !toFirst || !toSelf {
				t.Fatalf("selfbranch: a folded branch to index 0: %v, to itself: %v; want both", toFirst, toSelf)
			}
			// Cut after the branch back to index 0 (and its slot), the
			// body's last word is a folded branch that falls off the end of
			// the body when it is not taken.
			cut := words[:folds(body)[0]+1+bk.BranchDelaySlots()]
			args := bk.DefaultConv().IntArgs
			for _, ft := range fuzzTargets() {
				if ft.name != tg.Name {
					continue
				}
				for _, ws := range [][]uint32{words, cut} {
					for _, nm := range [][2]int64{{-4, 0}, {-4, 1}, {2, 1}} {
						for chunk := uint64(1); chunk <= 8; chunk++ {
							diffWords(t, ft, ws, chunk, func(c core.CPU) {
								c.SetReg(args[0], uint64(nm[0]))
								c.SetReg(args[1], uint64(nm[1]))
							})
						}
					}
				}
			}
			p.run(t, "selfbranch, falls out", build, core.CallOpts{}, false, core.I(-4), core.I(0))
			for fuel := uint64(1); fuel <= 30; fuel++ {
				p.run(t, fmt.Sprintf("selfbranch, spins, fuel %d", fuel), build, core.CallOpts{Fuel: fuel}, false,
					core.I(-4), core.I(1))
			}
			for stride := uint64(1); stride <= 5; stride++ {
				p.run(t, fmt.Sprintf("selfbranch, spins, stride %d", stride), build,
					core.CallOpts{Fuel: 50, PollStride: stride}, false, core.I(-2), core.I(1))
			}
		})
	}
}
