package diff

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mem"
	"repro/internal/regtest"
)

// This file holds the threaded engine to the switch engine on raw words at
// the boundaries its loop crosses: the load-use interlock where the reader
// of a load is the first instruction of a run, a folded branch, a transfer
// through a handler or a delay slot, and a transfer in a delay slot.  Each
// program runs at every budget chunk from 1 to its length, so a window
// also ends between the load and its reader.

// Raw encoders, just the forms the programs below use.  diffWords places
// the words at 0x1000 and points register 4 at mapped, zeroed memory.
func mipsI(op, rs, rt uint32, imm int32) uint32 { return op<<26 | rs<<21 | rt<<16 | uint32(imm)&0xffff }
func mipsLw(rt, off uint32) uint32              { return mipsI(0x23, 4, rt, int32(off)) }
func mipsAddu(rd, rs, rt uint32) uint32         { return rs<<21 | rt<<16 | rd<<11 | 0x21 }
func mipsBeq(rs, rt uint32, off int32) uint32   { return mipsI(4, rs, rt, off) }
func mipsBne(rs, rt uint32, off int32) uint32   { return mipsI(5, rs, rt, off) }
func mipsBal(off int32) uint32                  { return mipsI(1, 0, 0x11, off) }
func mipsJr(rs uint32) uint32                   { return rs<<21 | 8 }
func mipsJ(op uint32, idx int) uint32           { return op<<26 | (0x1000/4+uint32(idx))&0x3ffffff }

func sparcLd(rd, off uint32) uint32            { return 3<<30 | rd<<25 | 4<<14 | 1<<13 | off }
func sparcAlu(op3, rd, rs1, rs2 uint32) uint32 { return 2<<30 | rd<<25 | op3<<19 | rs1<<14 | rs2 }
func sparcB(cond uint32, disp int32) uint32    { return cond<<25 | 2<<22 | uint32(disp)&0x3fffff }
func sparcCall(disp int32) uint32              { return 1<<30 | uint32(disp)&0x3fffffff }
func sparcJmpl(rs1 uint32) uint32              { return sparcAlu(0x38, 0, rs1, 0) }

func alphaLdl(ra, off uint32) uint32     { return 0x28<<26 | ra<<21 | 4<<16 | off }
func alphaAddq(ra, rb, rc uint32) uint32 { return 0x10<<26 | ra<<21 | rb<<16 | 0x20<<5 | rc }
func alphaB(op, ra uint32, disp int32) uint32 {
	return op<<26 | ra<<21 | uint32(disp)&0x1fffff
}

const (
	mipsNop  = 0
	sparcNop = 0x01000000
	alphaNop = 0x47ff041f // bis r31, r31, r31
)

// interlockPrograms returns, per case, a program in which the register
// ld is loaded and then read by the instruction that follows the load.
func interlockPrograms(port string, ld uint32) map[string][]uint32 {
	switch port {
	case "mips":
		return map[string][]uint32{
			// Runs: a window may end between a load and its reader; a
			// load in a delay slot is read at the transfer's target.
			"run start": {mipsLw(ld, 0), mipsAddu(2, ld, ld), mipsAddu(3, 2, ld), mipsLw(ld, 4), mipsAddu(6, ld, 0),
				mipsBeq(0, 0, 2), mipsLw(ld, 0), mipsNop, mipsAddu(7, ld, ld), mipsAddu(6, 7, ld)},
			// Branches with a nop slot and an in-body target fold: the
			// first is taken, the second is not.
			"folded branch": {mipsLw(ld, 0), mipsBeq(ld, 0, 1), mipsNop, mipsLw(ld, 4), mipsBne(ld, 0, 1), mipsNop,
				mipsAddu(2, ld, ld)},
			// A slot that is not a nop, and a register jump, go through a
			// handler.
			"handler": {mipsLw(ld, 0), mipsBeq(ld, 0, 2), mipsAddu(3, 0, 0), mipsNop, mipsLw(ld, 4), mipsBne(ld, 0, 2),
				mipsAddu(2, 2, 2), mipsNop, mipsLw(ld, 8), mipsJr(ld), mipsNop},
			// The slot reads what was loaded ahead of its transfer.
			"delay slot": {mipsLw(ld, 0), mipsBeq(0, 0, 2), mipsAddu(2, ld, ld), mipsNop, mipsLw(ld, 4), mipsJ(2, 8),
				mipsAddu(3, ld, 0), mipsNop, mipsAddu(6, ld, ld)},
		}
	case "sparc":
		return map[string][]uint32{
			"run start": {sparcLd(ld, 0), sparcAlu(0, 2, ld, ld), sparcAlu(0, 3, 2, ld), sparcLd(ld, 4), sparcAlu(0, 6, ld, 0),
				sparcB(8, 3), sparcLd(ld, 0), sparcNop, sparcAlu(0, 7, ld, ld), sparcAlu(0, 6, 7, ld)},
			"folded branch": {sparcLd(ld, 0), sparcB(8, 2), sparcNop, sparcLd(ld, 4), sparcB(1, 2), sparcNop,
				sparcAlu(0, 2, ld, ld)},
			"handler":    {sparcLd(ld, 0), sparcB(8, 3), sparcAlu(0, 3, ld, 0), sparcNop, sparcLd(ld, 4), sparcJmpl(ld), sparcNop},
			"delay slot": {sparcLd(ld, 0), sparcB(8, 3), sparcAlu(0, 2, ld, ld), sparcNop, sparcAlu(0, 6, ld, ld)},
		}
	case "alpha":
		return map[string][]uint32{
			"run start": {alphaLdl(ld, 0), alphaAddq(ld, ld, 2), alphaAddq(2, ld, 3), alphaLdl(ld, 4), alphaAddq(ld, 31, 6)},
			// beq and bne read ld; both targets are in the body.
			"folded branch": {alphaLdl(ld, 0), alphaB(0x39, ld, 1), alphaNop, alphaLdl(ld, 4), alphaB(0x3d, ld, 1), alphaNop,
				alphaAddq(ld, ld, 2)},
			// Targets outside the body take the handler: not taken, then
			// taken.
			"handler": {alphaLdl(ld, 0), alphaB(0x3d, ld, 0x100), alphaLdl(ld, 4), alphaB(0x39, ld, 0x100)},
		}
	}
	return nil
}

// TestDifferentialInterlock holds the load-use interlock to the switch
// engine wherever the loop hands the interlock producer across: a run's
// first instruction, a folded branch, a handler's transfer and, on MIPS, a
// delay slot; with the loaded register a real one and the one the
// interlock never charges ($zero on MIPS, %g0 on SPARC, $31 on Alpha).
// Cycles, retired instructions, pc and error text must be the switch
// engine's at every budget chunk.
func TestDifferentialInterlock(t *testing.T) {
	never := map[string]uint32{"mips": 0, "sparc": 0, "alpha": 31}
	for _, ft := range fuzzTargets() {
		for _, ld := range []uint32{8, never[ft.name]} {
			for name, words := range interlockPrograms(ft.name, ld) {
				t.Run(fmt.Sprintf("%s/%s/r%d", ft.name, name, ld), func(t *testing.T) {
					for chunk := uint64(1); chunk <= uint64(len(words)); chunk++ {
						diffWords(t, ft, words, chunk, nil)
					}
				})
			}
		}
	}
}

// TestDifferentialDelaySlotTransfer holds a transfer in a delay slot to
// the switch engine.  The verifier refuses such code at install, so only
// raw words reach it: a taken one is reported, with the port's name, at
// the pc the first transfer lands on; a not-taken branch in a slot is no
// error.
func TestDifferentialDelaySlotTransfer(t *testing.T) {
	programs := map[string][]struct {
		words []uint32
		fails bool
	}{
		"mips": {
			{[]uint32{mipsBeq(0, 0, 2), mipsJr(31), mipsNop, mipsNop}, true},        // a jump out of the body
			{[]uint32{mipsBeq(0, 0, 2), mipsBeq(0, 0, -2), mipsNop, mipsNop}, true}, // an in-body branch
			{[]uint32{mipsJ(2, 3), mipsJ(3, 0), mipsNop, mipsNop}, true},            // jal after j
			{[]uint32{mipsJr(4), mipsJ(2, 0), mipsNop}, true},                       // after a jump out of the body
			{[]uint32{mipsBne(0, 4, 2), mipsBal(-1), mipsNop, mipsNop}, true},       // bal, which links
			{[]uint32{mipsBeq(0, 0, 2), mipsBne(0, 0, 5), mipsNop, mipsAddu(2, 2, 2)}, false},
		},
		"sparc": {
			{[]uint32{sparcB(8, 3), sparcCall(5), sparcNop, sparcNop}, true},
			{[]uint32{sparcB(8, 3), sparcJmpl(0), sparcNop, sparcNop}, true},
			{[]uint32{sparcB(8, 3), sparcB(8, -1), sparcNop, sparcNop}, true},
			{[]uint32{sparcJmpl(4), sparcB(8, -1), sparcNop}, true},
			{[]uint32{sparcB(8, 3), sparcB(1, 5), sparcNop, sparcAlu(0, 2, 2, 2)}, false}, // be, not taken
		},
	}
	for _, ft := range fuzzTargets() {
		for i, p := range programs[ft.name] {
			t.Run(fmt.Sprintf("%s/%d", ft.name, i), func(t *testing.T) {
				for chunk := uint64(1); chunk <= uint64(len(p.words)); chunk++ {
					err := diffWords(t, ft, p.words, chunk, nil)
					if got := err != nil && strings.HasPrefix(err.Error(), ft.name+": branch in delay slot at "); got != p.fails {
						t.Fatalf("chunk %d: the switch engine ended with %v, want a branch in a delay slot: %v", chunk, err, p.fails)
					}
				}
			})
		}
	}
}

// TestDifferentialRunCharge holds a straight run's load-use bubbles, which
// a segment pays in one sum (exec.MarkRuns), to the switch engine: a run
// of 300 loads, each read by the next instruction, so more bubbles than a
// byte holds, entered at its start with the budget ending at every
// position.
func TestDifferentialRunCharge(t *testing.T) {
	for _, ft := range fuzzTargets() {
		var words []uint32
		for k := 0; k < 300; k++ {
			switch ft.name {
			case "mips":
				words = append(words, mipsLw(8, 0), mipsAddu(2, 8, 8))
			case "sparc":
				words = append(words, sparcLd(8, 0), sparcAlu(0, 2, 8, 8))
			case "alpha":
				words = append(words, alphaLdl(8, 0), alphaAddq(8, 8, 2))
			}
		}
		for allow := uint64(1); allow <= uint64(len(words)); allow++ {
			diffPrefix(t, ft, words, allow)
		}
	}
}

// diffPrefix runs words from their start on both engines, allow
// instructions on the switch engine and one Run of allow on the threaded
// one, and fails on any divergence.
func diffPrefix(t *testing.T, ft fuzzTarget, words []uint32, allow uint64) {
	t.Helper()
	const base = 0x1000
	var cpus [2]core.CPU
	for k := range cpus {
		m := mem.New(1<<16, ft.big)
		for i, w := range words {
			if err := m.Store(base+4*uint64(i), 4, uint64(w)); err != nil {
				t.Fatal(err)
			}
		}
		cpus[k] = ft.mk(m)
		cpus[k].SetReg(core.GPR(4), 0x2000)
		cpus[k].SetPC(base)
	}
	var err1 error
	for err1 == nil && cpus[0].Insns() < allow {
		err1 = cpus[0].Step()
	}
	tc := cpus[1].(core.ThreadedCPU)
	port, st, _ := tc.Threaded()
	_, err2 := port.Run(tc, st, tc.Predecode(words, base), 0, allow)
	if d := ErrDiff(err1, err2); d != "" {
		t.Fatalf("%s, budget %d: %s", ft.name, allow, d)
	}
	if d := StateDiff(cpus[0], cpus[1]); d != "" {
		t.Fatalf("%s, budget %d: state diverged:\n%s", ft.name, allow, d)
	}
}

// TestDifferentialZeroWrites holds every plain row that writes an integer
// register, writing the zero register ($zero, %g0, r31), to the switch
// engine, followed in the same run by a read of the zero register into a
// live one.  Predecode sends the write to exec.Sink; the zero register
// must read zero after it on both engines.  The row's other register
// fields name registers that hold nonzero values, so most writes are not
// of zero.
func TestDifferentialZeroWrites(t *testing.T) {
	zero := map[string]uint32{"mips": 0, "sparc": 0, "alpha": 31}
	reader := map[string]uint32{
		"mips":  mipsAddu(2, 0, 0),
		"sparc": sparcAlu(0, 2, 0, 0),
		"alpha": alphaAddq(31, 31, 2),
	}
	setup := func(c core.CPU) { c.SetReg(core.GPR(5), 0x1000) } // the code: loads read nonzero words
	targets := map[string]regtest.Target{}
	for _, tg := range regtest.Targets() {
		targets[tg.Name] = tg
	}
	for _, ft := range fuzzTargets() {
		isa, writers := targets[ft.name].Backend.ISA(), 0
		for _, r := range isa.Rows() {
			if r.Kind != exec.KindOther {
				continue
			}
			for _, c := range []byte(r.Syntax) {
				f := isa.Field(c)
				if f == nil || f.Names == nil || f.Slot < exec.SlotA || f.Slot > exec.SlotC {
					continue
				}
				// c names the zero register, every other register field
				// r5 or r9, in turn.
				w, other := r.Match|zero[ft.name]<<f.Shift&^r.Mask, uint32(5)
				for _, d := range []byte(r.Syntax) {
					if g := isa.Field(d); d != c && g != nil && g.Names != nil && g.Slot >= exec.SlotA && g.Slot <= exec.SlotC {
						w, other = w|other<<g.Shift&^r.Mask, 14-other
					}
				}
				in := targets[ft.name].NewMachine().CPU().(core.ThreadedCPU).Predecode([]uint32{w}, 0x1000).Code[0]
				if in.A != exec.Sink && in.B != exec.Sink && in.C != exec.Sink {
					continue // c is not the register r writes
				}
				writers++
				for chunk := uint64(1); chunk <= 2; chunk++ {
					diffWords(t, ft, []uint32{w, reader[ft.name]}, chunk, setup)
				}
			}
		}
		if writers == 0 {
			t.Errorf("%s: no plain row writes the zero register", ft.name)
		}
		t.Logf("%s: %d plain rows write the zero register", ft.name, writers)
	}
}
