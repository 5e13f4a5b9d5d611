package repro

import (
	"testing"

	"repro/internal/alpha"
	"repro/internal/ash"
	"repro/internal/core"
	"repro/internal/dcg"
	"repro/internal/dpf"
	"repro/internal/jit"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/reduce"
	"repro/internal/sparc"
	"repro/internal/vreg"
)

// ---- E1: code generation cost (abstract, §5.1, §5.3, §7) ----
//
// BenchmarkCodegen* measures the host cost per generated VCODE
// instruction: the in-place system with allocator-managed registers, the
// hard-coded register-name fast path (§5.3: ~2x cheaper), and the
// DCG-style build-then-consume-IR baseline (the paper's ~35x).

func benchCodegenVCODE(b *testing.B, bk core.Backend, hard bool) {
	a := core.NewAsm(bk)
	b.ReportAllocs()
	insns := 0
	for i := 0; i < b.N; i++ {
		fn, n, err := emitVCODE(a, hard)
		if err != nil || fn == nil {
			b.Fatal(err)
		}
		insns = n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*insns), "ns/insn")
}

func BenchmarkCodegenVCODEMips(b *testing.B)  { benchCodegenVCODE(b, mips.New(), false) }
func BenchmarkCodegenVCODESparc(b *testing.B) { benchCodegenVCODE(b, sparc.New(), false) }
func BenchmarkCodegenVCODEAlpha(b *testing.B) { benchCodegenVCODE(b, alpha.New(), false) }

func BenchmarkCodegenVCODEHardRegs(b *testing.B) { benchCodegenVCODE(b, mips.New(), true) }

// BenchmarkCodegenRawEmit measures the bare backend emitters feeding the
// code buffer — the closest Go analog of what the paper's hard-coded
// register names bought in C, where the macro expansion constant-folds to
// "load a 32-bit immediate and store it" (§5.3: ~5 host instructions).
// The gap between this and BenchmarkCodegenVCODEMips is the cost of the
// portable per-instruction interface (validation, sticky errors,
// emulation dispatch).
func BenchmarkCodegenRawEmit(b *testing.B) {
	bk := mips.New()
	buf := core.NewBuf(16 * blocks)
	t0, t1 := core.GPR(8), core.GPR(9)
	insns := 10 * blocks
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		for j := 0; j < blocks; j++ {
			k := int64(j&15 + 1)
			_ = bk.ALUImm(buf, core.OpAdd, core.TypeI, t0, t1, k)
			_ = bk.ALUImm(buf, core.OpLsh, core.TypeI, t1, t0, 3)
			_ = bk.ALU(buf, core.OpXor, core.TypeI, t0, t0, t1)
			_ = bk.Load(buf, core.TypeI, t1, t0, k*4)
			_ = bk.ALU(buf, core.OpAdd, core.TypeI, t1, t1, t0)
			_ = bk.Store(buf, core.TypeI, t1, t0, k*4)
			_ = bk.ALUImm(buf, core.OpSub, core.TypeI, t0, t0, 7)
			_ = bk.ALUImm(buf, core.OpAnd, core.TypeI, t1, t1, 0xff)
			_, _ = bk.BranchImm(buf, core.OpBlt, core.TypeI, t0, 1000)
			_ = bk.ALU(buf, core.OpOr, core.TypeI, t0, t0, t1)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*insns), "ns/insn")
}

func BenchmarkCodegenDCG(b *testing.B) {
	g := dcg.New(mips.New())
	b.ReportAllocs()
	insns := 0
	for i := 0; i < b.N; i++ {
		fn, n, err := emitDCG(g)
		if err != nil || fn == nil {
			b.Fatal(err)
		}
		insns = n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*insns), "ns/insn")
}

// BenchmarkCodegenVReg measures the unlimited-virtual-register extension
// layer (§6.2: "preliminary results indicate that the addition of this
// (optional) support would increase code generation cost by roughly a
// factor of two") on a workload whose registers all spill.
func BenchmarkCodegenVReg(b *testing.B) {
	a := core.NewAsm(mips.New())
	b.ReportAllocs()
	insns := 0
	for i := 0; i < b.N; i++ {
		args, err := a.Begin("%p%i", core.NonLeaf)
		if err != nil {
			b.Fatal(err)
		}
		v, err := vreg.New(a, 0)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 32; j++ { // exhaust physical registers
			v.Reg(core.TypeI)
		}
		base, n := v.Reg(core.TypeP), v.Reg(core.TypeI)
		v.MovFrom(core.TypeP, base, args[0])
		v.MovFrom(core.TypeI, n, args[1])
		r1, r2 := v.Reg(core.TypeI), v.Reg(core.TypeI)
		for j := 0; j < blocks; j++ {
			k := int64(j&15 + 1)
			v.ALUI(core.OpAdd, core.TypeI, r1, n, k)
			v.ALUI(core.OpLsh, core.TypeI, r2, r1, 3)
			v.ALU(core.OpXor, core.TypeI, r1, r1, r2)
			v.LdI(core.TypeI, r2, base, k*4)
			v.ALU(core.OpAdd, core.TypeI, r2, r2, r1)
			v.StI(core.TypeI, r2, base, k*4)
			v.ALUI(core.OpSub, core.TypeI, r1, r1, 7)
			v.ALUI(core.OpAnd, core.TypeI, r2, r2, 0xff)
			l := a.NewLabel()
			v.BrI(core.OpBlt, core.TypeI, n, 1000, l)
			a.Bind(l)
			v.ALU(core.OpOr, core.TypeI, r1, r1, r2)
		}
		v.Ret(core.TypeI, r1)
		if _, err := a.End(); err != nil {
			b.Fatal(err)
		}
		insns = 10 * blocks
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*insns), "ns/insn")
}

// ---- DPF ablation: dispatch strategy (§4.2's "optimize the comparison") ----

func benchDPFDispatch(b *testing.B, disableHash bool) {
	e, err := dpf.NewDPF(mem.DEC5000)
	if err != nil {
		b.Fatal(err)
	}
	e.DisableHash = disableHash
	benchTable3(b, e)
}

func BenchmarkDPFDispatchHash(b *testing.B)   { benchDPFDispatch(b, false) }
func BenchmarkDPFDispatchBinary(b *testing.B) { benchDPFDispatch(b, true) }

// ---- E7: code-generation memory (§3: "consumes little space") ----
//
// The allocs/op column is the point: VCODE's in-place generation
// allocates a few slices per function regardless of length, while the
// IR-building baseline allocates per instruction.  (Run with -benchmem.)

func BenchmarkCodegenMemoryVCODE(b *testing.B) { benchCodegenVCODE(b, mips.New(), false) }
func BenchmarkCodegenMemoryDCG(b *testing.B)   { BenchmarkCodegenDCG(b) }

// ---- Table 3: packet-filter classification (§4.2) ----
//
// Each iteration classifies one TCP/IP header against ten installed
// session filters.  The "sim-us" metric is the modelled DEC5000/200 time
// — the number Table 3 reports; wall-clock ns/op is simulator overhead,
// not a paper number.

func benchTable3(b *testing.B, e dpf.Engine) {
	w := dpf.NewWorkload(10)
	if err := e.Install(w.Filters); err != nil {
		b.Fatal(err)
	}
	if err := dpf.Verify(e, w); err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, c, err := e.Classify(w.Packets[i%len(w.Packets)])
		if err != nil {
			b.Fatal(err)
		}
		cycles += c
	}
	b.ReportMetric(float64(cycles)/float64(b.N)/mem.DEC5000.MHz, "sim-us")
}

func BenchmarkTable3MPF(b *testing.B)        { benchTable3(b, dpf.NewMPF()) }
func BenchmarkTable3Pathfinder(b *testing.B) { benchTable3(b, dpf.NewPathfinder()) }

func BenchmarkTable3DPF(b *testing.B) {
	e, err := dpf.NewDPF(mem.DEC5000)
	if err != nil {
		b.Fatal(err)
	}
	benchTable3(b, e)
}

// BenchmarkTable3DPFCompile isolates the install-time cost DPF pays to
// win at classification time: compiling ten filters to machine code.
func BenchmarkTable3DPFCompile(b *testing.B) {
	w := dpf.NewWorkload(10)
	e, err := dpf.NewDPF(mem.DEC5000)
	if err != nil {
		b.Fatal(err)
	}
	e.DisableCache() // measure the compiler, not the classifier cache's hit path
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Install(w.Filters); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table 4: integrated message operations (§4.3) ----
//
// Each iteration processes one 4KB message.  The "sim-us" metric is the
// modelled machine time — the Table 4 cell.

func benchTable4(b *testing.B, conf mem.MachineConfig, m ash.Method, p ash.Pipeline, flush bool) {
	sys, err := ash.NewSystem(conf, ash.Table4Message)
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, ash.Table4Message)
	for i := range msg {
		msg[i] = byte(3 * i)
	}
	if _, _, err := sys.Run(m, p, msg, false); err != nil { // warm
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _, err := sys.Run(m, p, msg, flush)
		if err != nil {
			b.Fatal(err)
		}
		cycles += c
	}
	b.ReportMetric(conf.Micros(cycles)/float64(b.N), "sim-us")
}

var ckSw = ash.Pipeline{Checksum: true, Swap: true}

func BenchmarkTable4Dec5000SeparateUncached(b *testing.B) {
	benchTable4(b, mem.DEC5000, ash.Separate, ckSw, true)
}

func BenchmarkTable4Dec5000Separate(b *testing.B) {
	benchTable4(b, mem.DEC5000, ash.Separate, ckSw, false)
}

func BenchmarkTable4Dec5000CIntegrated(b *testing.B) {
	benchTable4(b, mem.DEC5000, ash.CIntegrated, ckSw, false)
}

func BenchmarkTable4Dec5000ASH(b *testing.B) {
	benchTable4(b, mem.DEC5000, ash.ASH, ckSw, false)
}

func BenchmarkTable4Dec3100SeparateUncached(b *testing.B) {
	benchTable4(b, mem.DEC3100, ash.Separate, ckSw, true)
}

func BenchmarkTable4Dec3100Separate(b *testing.B) {
	benchTable4(b, mem.DEC3100, ash.Separate, ckSw, false)
}

func BenchmarkTable4Dec3100CIntegrated(b *testing.B) {
	benchTable4(b, mem.DEC3100, ash.CIntegrated, ckSw, false)
}

func BenchmarkTable4Dec3100ASH(b *testing.B) {
	benchTable4(b, mem.DEC3100, ash.ASH, ckSw, false)
}

// ---- JIT: stripping a layer of interpretation (§1, §2) ----
//
// The abstract's motivating claim: runtime code generation improves
// performance "by up to an order of magnitude".  Both rows run under the
// same DEC5000-class cost model: the interpreter through its dispatch
// cost model, the compiled code on the simulator.

func BenchmarkJITInterpreted(b *testing.B) {
	f := jit.FibIter()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, c, err := jit.Interp(f, 30)
		if err != nil {
			b.Fatal(err)
		}
		cycles += c
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles")
}

func BenchmarkJITCompiled(b *testing.B) {
	m := jit.NewMachine(mem.DEC5000)
	fn, err := m.Compile(jit.FibIter())
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		_, c, err := m.Run(fn, 30)
		if err != nil {
			b.Fatal(err)
		}
		cycles += c
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles")
}

// ---- Strength reduction (§5.4): the client-side reducer for multiply
// and divide by runtime constants, measured in simulated machine cycles
// against the hardware instructions it replaces. ----

func benchStrength(b *testing.B, reduced bool) {
	bk := mips.New()
	m := mem.New(1<<22, false)
	cpu := mips.NewCPU(m)
	mc := core.NewMachine(bk, cpu, m)
	a := core.NewAsm(bk)
	args, err := a.Begin("%i", core.Leaf)
	if err != nil {
		b.Fatal(err)
	}
	rd, err := a.GetReg(core.Temp)
	if err != nil {
		b.Fatal(err)
	}
	// x*24 + x/8 + x%8 over reduced vs native instructions.
	t2, err := a.GetReg(core.Temp)
	if err != nil {
		b.Fatal(err)
	}
	if reduced {
		reduce.MulI(a, core.TypeI, rd, args[0], 24)
		reduce.DivI(a, core.TypeI, t2, args[0], 8)
		a.Addi(rd, rd, t2)
		reduce.ModI(a, core.TypeI, t2, args[0], 8)
	} else {
		a.Mulii(rd, args[0], 24)
		a.Divii(t2, args[0], 8)
		a.Addi(rd, rd, t2)
		a.Modii(t2, args[0], 8)
	}
	a.Addi(rd, rd, t2)
	a.Reti(rd)
	fn, err := a.End()
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cpu.ResetStats()
		if _, err := mc.Call(fn, core.I(123456)); err != nil {
			b.Fatal(err)
		}
		cycles += cpu.Cycles()
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles")
}

func BenchmarkStrengthReduced(b *testing.B) { benchStrength(b, true) }
func BenchmarkStrengthNative(b *testing.B)  { benchStrength(b, false) }

// ---- E8: portable delay-slot scheduling (§5.3) ----
//
// A scheduled tight loop against its unscheduled equivalent on a
// delay-slot machine: same semantics, fewer executed instructions.

func BenchmarkDelayScheduledLoop(b *testing.B)   { benchDelay(b, true) }
func BenchmarkDelayUnscheduledLoop(b *testing.B) { benchDelay(b, false) }

func benchDelay(b *testing.B, scheduled bool) {
	bk := mips.New()
	m := mem.New(1<<22, false)
	cpu := mips.NewCPU(m)
	mc := core.NewMachine(bk, cpu, m)

	a := core.NewAsm(bk)
	args, err := a.Begin("%i", core.Leaf)
	if err != nil {
		b.Fatal(err)
	}
	acc, err := a.GetReg(core.Temp)
	if err != nil {
		b.Fatal(err)
	}
	a.Seti(acc, 0)
	top := a.NewLabel()
	a.Bind(top)
	a.Subii(args[0], args[0], 1)
	if scheduled {
		// The accumulate rides in the loop branch's delay slot.
		a.ScheduleDelay(
			func() { a.Bgtii(args[0], 0, top) },
			func() { a.Addi(acc, acc, args[0]) },
		)
	} else {
		a.Addi(acc, acc, args[0])
		a.Bgtii(args[0], 0, top)
	}
	a.Reti(acc)
	fn, err := a.End()
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cpu.ResetStats()
		if _, err := mc.Call(fn, core.I(1000)); err != nil {
			b.Fatal(err)
		}
		cycles += cpu.Cycles()
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles")
}
