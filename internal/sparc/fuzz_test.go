package sparc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isatest"
	"repro/internal/mem"
)

// FuzzStep executes arbitrary instruction words on the simulator: every
// word must either execute or come back as a typed error — a panic fails
// the run — and the verifier and the predecoder must agree with the
// simulator on which of the words are instructions at all.
func FuzzStep(f *testing.F) {
	// Seed with real encodings from the backend so the fuzzer starts
	// inside the decoded space, plus the corner patterns.
	a := core.NewAsm(New())
	if args, err := a.Begin("%i%i", core.Leaf); err == nil {
		a.Addi(args[0], args[0], args[1])
		a.Muli(args[0], args[0], args[1])
		a.Ldui(args[0], args[1], 8)
		a.Stui(args[0], args[1], 8)
		a.Bltii(args[0], 3, a.NewLabel())
		a.Reti(args[0])
		if fn, err := a.End(); err == nil {
			for _, w := range fn.Words {
				f.Add(w, w)
			}
		}
	}
	for _, w := range []uint32{0, 0xffffffff, 0x80000000, 0x0000003f, 0x45000000} {
		f.Add(w, ^w)
	}
	f.Fuzz(func(t *testing.T, w1, w2 uint32) {
		m := mem.New(1<<16, true)
		cpu := NewCPU(m)
		const base = 0x100
		m.WriteBytes(base, []byte{
			byte(w1), byte(w1 >> 8), byte(w1 >> 16), byte(w1 >> 24),
			byte(w2), byte(w2 >> 8), byte(w2 >> 16), byte(w2 >> 24),
		})
		// Point a few registers at mapped memory so loads and stores
		// sometimes land; the rest stay zero.
		cpu.SetReg(core.GPR(4), 0x200)
		cpu.SetReg(core.GPR(5), 0x204)
		cpu.SetPC(base)
		for i := 0; i < 32; i++ {
			if err := cpu.Step(); err != nil {
				break
			}
		}
		(&isatest.ISA{Rows: rows, Dec: New(), CPU: cpu, Mem: m}).CheckWords(t, []uint32{w1, w2})
	})
}
