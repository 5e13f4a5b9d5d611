package diff

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/regtest"
)

// handOff is an instruction some port's Loop does not run: a byte,
// halfword or FP access, a divide, a word access the inline accessors
// decline (misaligned, out of the window, or any under a cache model), or
// a word with no row (emit nil).  Each is emitted the same way on every
// port; where a port's Loop runs it after all, it is held all the same.
type handOff struct {
	name string
	emit func(a *core.Asm, p, x, f core.Reg)
}

var handOffs = []handOff{
	{"lb", func(a *core.Asm, p, x, _ core.Reg) { a.LdI(core.TypeC, x, p, 1) }},
	{"lbu", func(a *core.Asm, p, x, _ core.Reg) { a.LdI(core.TypeUC, x, p, 3) }},
	{"lh", func(a *core.Asm, p, x, _ core.Reg) { a.LdI(core.TypeS, x, p, 2) }},
	{"lhu", func(a *core.Asm, p, x, _ core.Reg) { a.LdI(core.TypeUS, x, p, 6) }},
	{"sb", func(a *core.Asm, p, x, _ core.Reg) { a.StI(core.TypeUC, x, p, 5) }},
	{"sh", func(a *core.Asm, p, x, _ core.Reg) { a.StI(core.TypeUS, x, p, 10) }},
	{"lf", func(a *core.Asm, p, _, f core.Reg) { a.LdI(core.TypeF, f, p, 8) }},
	{"ld", func(a *core.Asm, p, _, f core.Reg) { a.LdI(core.TypeD, f, p, 16) }},
	{"sf", func(a *core.Asm, p, _, f core.Reg) { a.StI(core.TypeF, f, p, 12) }},
	{"sd", func(a *core.Asm, p, _, f core.Reg) { a.StI(core.TypeD, f, p, 24) }},
	{"div", func(a *core.Asm, p, x, _ core.Reg) { a.ALU(core.OpDiv, core.TypeI, x, p, x) }},
	{"divu", func(a *core.Asm, p, x, _ core.Reg) { a.ALU(core.OpDiv, core.TypeU, x, p, x) }},
	{"lw", func(a *core.Asm, p, x, _ core.Reg) { a.LdI(core.TypeI, x, p, 4) }},
	{"sw", func(a *core.Asm, p, x, _ core.Reg) { a.StI(core.TypeI, x, p, 20) }},
	{"ll", func(a *core.Asm, p, x, _ core.Reg) { a.LdI(core.TypeL, x, p, 32) }},
	{"sl", func(a *core.Asm, p, x, _ core.Reg) { a.StI(core.TypeL, x, p, 40) }},
	{"lw misaligned", func(a *core.Asm, p, x, _ core.Reg) { a.LdI(core.TypeI, x, p, 2) }},
	{"sw misaligned", func(a *core.Asm, p, x, _ core.Reg) { a.StI(core.TypeI, x, p, 6) }},
	{"bad word", nil},
}

// badWords are, per port, words with no row: one of a real decode group
// (the verifier refuses them, so they install only with it off) and one
// of no group at all.
var badWords = map[string][2]uint32{
	"mips":  {0x469ca343, 0xfc000000},
	"sparc": {0x9acb0442, 0x00000000},
	"alpha": {0x4d088f48, 0x04000000},
}

// handOffAt says where buildHandOff puts the instruction.
const (
	atFirst = iota // the body's first instruction
	atMid          // mid-run, after a word load of the register it may read
	atSlot         // the delay slot of a taken branch (before it where there is none)
)

// buildHandOff generates fn(p, x) with h's instruction at where, and with
// an add of marker in its place for a bad word.
func buildHandOff(bk core.Backend, h handOff, where int, marker int64) (*core.Func, error) {
	a := core.NewAsm(bk)
	a.SetName("handoff")
	args, err := a.BeginTypes([]core.Type{core.TypeP, core.TypeI}, core.Leaf)
	if err != nil {
		return nil, err
	}
	p, x := args[0], args[1]
	f, err := a.GetFReg(core.Temp)
	if err != nil {
		return nil, err
	}
	const I = core.TypeI
	k := func() {
		if h.emit == nil {
			a.ALUI(core.OpAdd, I, x, x, marker)
		} else {
			h.emit(a, p, x, f)
		}
	}
	switch where {
	case atFirst:
		k()
		a.ALUI(core.OpAdd, I, x, x, 3)
		a.ALUI(core.OpXor, I, x, x, 5)
	case atMid:
		a.ALUI(core.OpAdd, I, x, x, 3)
		a.LdI(I, x, p, 28)
		k()
		a.ALUI(core.OpXor, I, x, x, 5)
		a.ALUI(core.OpAdd, I, x, x, 1)
	case atSlot:
		l := a.NewLabel()
		a.ALUI(core.OpAdd, I, x, x, 3)
		a.ScheduleDelay(func() { a.BrI(core.OpBge, I, x, 0, l) }, k)
		a.ALUI(core.OpXor, I, x, x, 5) // branched over
		a.Bind(l)
		a.ALUI(core.OpAdd, I, x, x, 1)
	}
	a.Reti(x)
	return a.End()
}

// handOffFunc builds h at where for tg; a bad word is patched over the
// marker's word, found as the one word two markers change.
func handOffFunc(t *testing.T, tg regtest.Target, h handOff, where int, bad uint32) *core.Func {
	t.Helper()
	fn, err := buildHandOff(tg.Backend, h, where, 0x35)
	if err != nil {
		t.Fatalf("%s %s: %v", tg.Name, h.name, err)
	}
	if h.emit != nil {
		return fn
	}
	twin, err := buildHandOff(tg.Backend, h, where, 0x36)
	if err != nil {
		t.Fatal(err)
	}
	at := -1
	for i := range fn.Words {
		if fn.Words[i] != twin.Words[i] {
			at = i
		}
	}
	if at < 0 || tg.Backend.ISA().Lookup(bad) != nil {
		t.Fatalf("%s: no marker word, or %#08x has a row", tg.Name, bad)
	}
	fn.Words[at] = bad
	return fn
}

// TestDifferentialHandOff holds every instruction a port's Loop hands off
// to the switch engine, on a flat memory and on a DECstation 5000's (whose
// cache model every word access declines): each kind first in the body,
// mid-run and in a taken branch's delay slot; on a buffer and out of the
// memory; with the budget ending at every step and polls at every stride
// from 1 to 6; and with a sampler and an edge probe attached.  Results,
// state, memory, cycles, instructions, fuel, error text and probe streams
// must be identical.
func TestDifferentialHandOff(t *testing.T) {
	for _, ft := range fuzzTargets() {
		for _, tg := range regtest.Targets() {
			if tg.Name != ft.name {
				continue
			}
			for _, model := range []mem.MachineConfig{mem.Uncosted, mem.DEC5000} {
				machine := func() *core.Machine {
					m, err := model.Build(ft.big)
					if err != nil {
						t.Fatal(err)
					}
					mc := core.NewMachine(tg.Backend, ft.mk(m), m)
					mc.SetVerify(false)
					return mc
				}
				p := enginePair{sw: machine(), th: machine()}
				if err := p.sw.SetEngine(core.EngineSwitch); err != nil {
					t.Fatal(err)
				}
				var buf uint64
				for _, m := range []*core.Machine{p.sw, p.th} {
					a, err := m.Alloc(64)
					if err != nil {
						t.Fatal(err)
					}
					for i := uint64(0); i < 64; i += 4 {
						if err := m.Mem().Store(a+i, 4, 0x80808080|0x9e3779b9*(i+1)); err != nil { // every byte negative
							t.Fatal(err)
						}
					}
					buf = a
				}
				for _, h := range handOffs {
					bads := []uint32{0}
					if h.emit == nil {
						w := badWords[tg.Name]
						bads = w[:]
					}
					for _, bad := range bads {
						for where := atFirst; where <= atSlot; where++ {
							name := fmt.Sprintf("%s %s %s at %d", tg.Name, model.Name, h.name, where)
							if h.emit == nil {
								name += fmt.Sprintf(" (%#08x)", bad)
							}
							f1, f2 := handOffFunc(t, tg, h, where, bad), handOffFunc(t, tg, h, where, bad)
							p.holdHandOff(t, name, f1, f2, buf)
						}
					}
				}
			}
		}
	}
}

// holdHandOff calls f1 and f2, the same program, on p's two machines in every
// way TestDifferentialHandOff lists, p.call holding the two alike.
func (p enginePair) holdHandOff(t *testing.T, name string, f1, f2 *core.Func, buf uint64) {
	t.Helper()
	call := func(what string, opts core.CallOpts, ptr uint64) {
		t.Helper()
		p.call(t, name+", "+what, f1, f2, opts, false, core.P(ptr), core.I(7))
		b1, _ := p.sw.Mem().Bytes(buf, 64)
		b2, _ := p.th.Mem().Bytes(buf, 64)
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s, %s: buffers diverged:\nswitch:   %x\nthreaded: %x", name, what, b1, b2)
		}
	}
	call("on the buffer", core.CallOpts{}, buf)
	call("out of the memory", core.CallOpts{}, p.sw.Mem().Size()+64)
	for fuel := uint64(1); fuel <= uint64(len(f1.Words)); fuel++ {
		call(fmt.Sprintf("fuel %d", fuel), core.CallOpts{Fuel: fuel}, buf)
	}
	for stride := uint64(1); stride <= 6; stride++ {
		call(fmt.Sprintf("stride %d", stride), core.CallOpts{PollStride: stride}, buf)
	}
	type edge struct {
		pc    uint64
		taken bool
	}
	for _, stride := range []uint64{1, 2, 3} {
		var samples [2][]uint64
		var edges [2][]edge
		for i, m := range []*core.Machine{p.sw, p.th} {
			i := i
			if err := m.SetSampler(func(pc uint64) { samples[i] = append(samples[i], pc) }, stride); err != nil {
				t.Fatal(err)
			}
			if err := m.SetEdgeProbe(func(pc uint64, taken bool) { edges[i] = append(edges[i], edge{pc, taken}) }, 1); err != nil {
				t.Fatal(err)
			}
		}
		call(fmt.Sprintf("sampled every %d", stride), core.CallOpts{}, buf)
		call(fmt.Sprintf("sampled every %d, out of the memory", stride), core.CallOpts{}, p.sw.Mem().Size()+64)
		call(fmt.Sprintf("sampled every %d, stride 2", stride), core.CallOpts{PollStride: 2}, buf)
		for _, m := range []*core.Machine{p.sw, p.th} {
			if err := m.SetSampler(nil, 0); err != nil {
				t.Fatal(err)
			}
			if err := m.SetEdgeProbe(nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		if len(samples[0]) == 0 || fmt.Sprint(samples[0]) != fmt.Sprint(samples[1]) ||
			fmt.Sprint(edges[0]) != fmt.Sprint(edges[1]) {
			t.Fatalf("%s: probe streams diverged (or no sample):\nswitch:   %x %v\nthreaded: %x %v",
				name, samples[0], edges[0], samples[1], edges[1])
		}
	}
}
