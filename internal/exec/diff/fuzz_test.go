package diff

import (
	"encoding/binary"
	"testing"

	"repro/internal/alpha"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/regtest"
	"repro/internal/sparc"
)

// fuzzTarget is one backend's CPU constructor for the CPU-level
// differential driver (no Machine, no traps — raw word sequences).
type fuzzTarget struct {
	name string
	big  bool
	mk   func(m *mem.Memory) core.CPU
}

func fuzzTargets() []fuzzTarget {
	return []fuzzTarget{
		{"mips", false, func(m *mem.Memory) core.CPU { return mips.NewCPU(m) }},
		{"sparc", true, func(m *mem.Memory) core.CPU { return sparc.NewCPU(m) }},
		{"alpha", false, func(m *mem.Memory) core.CPU { return alpha.NewCPU(m) }},
	}
}

// diffWords runs the same word sequence on two identical CPUs — one via
// the fetch/switch Step oracle, one via Predecode+RunBody — and fails
// on any divergence in error text, registers, counters, PC, or memory.
// The driver falls back to Step whenever the PC leaves the predecoded
// body or a delay pair is in flight, exactly as Machine.run does, and
// hands RunBody its budget chunk instructions at a time, the way a poll
// stride does: a window can end anywhere in a run or between a branch and
// its slot.
func diffWords(t *testing.T, ft fuzzTarget, words []uint32, chunk uint64) {
	t.Helper()
	const base = 0x1000
	const insnCap = 256

	image := make([]byte, 4*len(words))
	for i, w := range words {
		if ft.big {
			binary.BigEndian.PutUint32(image[4*i:], w)
		} else {
			binary.LittleEndian.PutUint32(image[4*i:], w)
		}
	}
	m1, m2 := mem.New(1<<16, ft.big), mem.New(1<<16, ft.big)
	if err := m1.WriteBytes(base, image); err != nil {
		t.Fatal(err)
	}
	if err := m2.WriteBytes(base, image); err != nil {
		t.Fatal(err)
	}
	c1, c2 := ft.mk(m1), ft.mk(m2)
	for _, c := range []core.CPU{c1, c2} {
		// Point a few registers at mapped memory so loads and stores
		// sometimes land, and give the FP bank nonzero contents.
		c.SetReg(core.GPR(4), 0x2000)
		c.SetReg(core.GPR(5), 0x2004)
		c.SetReg(core.GPR(9), 0x2010)
		c.SetFReg(core.FPR(2), 0x400921fb54442d18, true) // pi bits
		c.SetPC(base)
	}
	tc, ok := c2.(core.ThreadedCPU)
	if !ok {
		t.Fatalf("%s: CPU does not implement ThreadedCPU", ft.name)
	}
	body := tc.Predecode(words, base)

	var err1 error
	for c1.Insns() < insnCap {
		if err := c1.Step(); err != nil {
			err1 = err
			break
		}
	}
	var err2 error
	for tc.Insns() < insnCap {
		pc := tc.PC()
		if tc.PendingDelay() || !body.Contains(pc) {
			if err := c2.Step(); err != nil {
				err2 = err
				break
			}
			continue
		}
		allow := insnCap - tc.Insns()
		if allow > chunk {
			allow = chunk
		}
		if _, err := tc.RunBody(body, body.IndexOf(pc), allow); err != nil {
			err2 = err
			break
		}
	}

	if d := ErrDiff(err1, err2); d != "" {
		t.Fatalf("%s: %s", ft.name, d)
	}
	if d := StateDiff(c1, c2); d != "" {
		t.Fatalf("%s: state diverged:\n%s", ft.name, d)
	}
	b1, _ := m1.Bytes(0, int(m1.Size()))
	b2, _ := m2.Bytes(0, int(m2.Size()))
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("%s: memory diverged at %#x: switch=%#x threaded=%#x", ft.name, i, b1[i], b2[i])
		}
	}
}

// FuzzExecDifferential feeds arbitrary word sequences through both
// execution engines on all three backends; any architectural-state
// divergence — including error text, cycle counts and the load-use
// interlock's stall cycles — fails the run.  This is the adversarial
// complement to TestDifferentialEngines' generated-program sweep: the
// fuzzer explores malformed encodings, wild branches and partial delay
// pairs that no code generator emits.
func FuzzExecDifferential(f *testing.F) {
	// Seed with real generated code from each backend, from its entry on
	// (the words before it are the unused part of the reserved prologue,
	// and only sixteen words are run) — raw words are cross-fed to the
	// other two, which is itself a useful corner — plus boundary patterns.
	for _, tg := range regtest.Targets() {
		if fn, err := regtest.BuildALU(tg.Backend, core.OpAdd, core.TypeI); err == nil {
			f.Add(wordBytes(fn.Words[fn.Entry:]), uint8(255))
		}
		if fn, err := regtest.BuildMemRoundtrip(tg.Backend, core.TypeS); err == nil {
			f.Add(wordBytes(fn.Words[fn.Entry:]), uint8(3))
		}
		if fn, err := buildLoop(tg.Backend); err == nil {
			f.Add(wordBytes(fn.Words[fn.Entry:]), uint8(1))
		}
	}
	f.Add([]byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, uint8(2))
	f.Add(wordBytes([]uint32{0x80000000, 0x0000003f, 0x45000000, 0xc1a00000}), uint8(7))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		n := len(data) / 4
		if n == 0 {
			return
		}
		if n > 16 {
			n = 16
		}
		words := make([]uint32, n)
		for i := range words {
			words[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		for _, ft := range fuzzTargets() {
			diffWords(t, ft, words, uint64(chunk)+1)
		}
	})
}

func wordBytes(words []uint32) []byte {
	out := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}
