package repro

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"testing"

	"repro/internal/core"
	vexec "repro/internal/exec"
	"repro/internal/regtest"
	"repro/internal/trace"
)

// The paper's unit is host instructions per generated instruction (§5.1:
// 6–10 for a macro).  It needs no hardware counters and is exact: the
// test binary runs itself again under ptrace, the child
// brackets each measured call with runtime.Breakpoint, and the parent
// single-steps the window between them, counting the instructions whose
// function (innermost, through inlining) is in a repro/… package — the
// library, not this package's harness, not the runtime (morestack
// included).  The child runs with GOGC=off, GODEBUG=asyncpreemptoff=1 and
// GOMAXPROCS=1, in init, where the runtime keeps the main goroutine on the
// main thread, the one ptrace follows.  A row is the least count over
// hostCountCalls calls, so a slice growing or a preemption request in one
// call does not show.

// hostCountEnv names the rows and the port a re-executed test binary
// counts, as "rows:port".
const hostCountEnv = "REPRO_HOST_COUNT"

// hostCountCalls is how many measured calls each row takes the least of.
const hostCountCalls = 8

var hostCountAll = flag.Bool("hostcount.all", false, "count the rows on every port, not only mips")

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation the counts would include.
var raceEnabled bool

// hostRow is one measured call: setup readies it on a port, warm, and
// returns it.
type hostRow struct {
	name  string
	setup func(tg regtest.Target) func()
}

// emitting is the setup of an emit row: an assembler whose buffers two
// builds of 256 calls have grown, inside a third build.
func emitting(call func(a *core.Asm)) func(regtest.Target) func() {
	return func(tg regtest.Target) func() {
		a := core.NewAsm(tg.Backend)
		for warm := 0; warm < 2; warm++ {
			must(a.Begin("%i%i", core.Leaf))
			for i := 0; i < 256; i++ {
				call(a)
			}
			must(a.End())
		}
		must(a.Begin("%i%i", core.Leaf))
		return func() { call(a) }
	}
}

// must panics on err: a child's setup that fails has nothing to count.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// The rows' operands: integer registers, a small immediate and a small
// displacement, the accepted case every port has a template for; Ld and
// St take a register offset, one indexed row on sparc and core's mapped
// add and access (two words) on mips and alpha.
var (
	hr1, hr2, hr3 = core.GPR(8), core.GPR(9), core.GPR(10)
	emitRows      = []hostRow{
		{"ALU", emitting(func(a *core.Asm) { a.ALU(core.OpAdd, core.TypeI, hr1, hr2, hr3) })},
		{"ALUI", emitting(func(a *core.Asm) { a.ALUI(core.OpAdd, core.TypeI, hr1, hr2, 5) })},
		{"LdI", emitting(func(a *core.Asm) { a.LdI(core.TypeI, hr1, hr2, 8) })},
		{"StI", emitting(func(a *core.Asm) { a.StI(core.TypeI, hr1, hr2, 8) })},
		{"Ld", emitting(func(a *core.Asm) { a.Ld(core.TypeI, hr1, hr2, hr3) })},
		{"St", emitting(func(a *core.Asm) { a.St(core.TypeI, hr1, hr2, hr3) })},
		{"SetI", emitting(func(a *core.Asm) { a.SetI(core.TypeI, hr1, 5) })},
		{"Unary", emitting(func(a *core.Asm) { a.Unary(core.OpMov, core.TypeI, hr1, hr2) })},
		{"Br+NewLabel+Bind", emitting(func(a *core.Asm) {
			l := a.NewLabel()
			a.Br(core.OpBlt, core.TypeI, hr1, hr2, l)
			a.Bind(l)
		})},
		{"BrI+NewLabel+Bind", emitting(func(a *core.Asm) {
			l := a.NewLabel()
			a.BrI(core.OpBne, core.TypeI, hr1, 0, l)
			a.Bind(l)
		})},
	}
)

// The exec rows: the port's Decode of loop_long's body (a load, five ALU
// and ALUI forms, the load's consumer, the counter's decrement and the
// back-edge, as internal/exec/diff's load-led loop) into a warm body, as
// Install decodes it; then, through a warm CallWithStats, the body for two
// trip counts, whose difference is a trip's cost, the same with a byte
// load in place of the word load (a step of the oracle where the port's
// Loop hands it off: mips and sparc), and a 13-instruction
// leaf, whose count is a warm call's, then the same under a context that
// can be canceled and never is (it polls, at the default stride, as a call
// vcoded makes with a deadline does), then with the trace recorder on (the
// last row: the recorder stays on in the child).
const loopTripsFew, loopTripsMany = 2, 10

var execRows = []hostRow{
	{"decode", decoding(buildLoopLongBody)},
	{"loop few", calling(context.Background(), buildLoopLongBody, loopArgs(loopTripsFew))},
	{"loop many", calling(context.Background(), buildLoopLongBody, loopArgs(loopTripsMany))},
	{"byte loop few", calling(context.Background(), buildByteLoopBody, loopArgs(loopTripsFew))},
	{"byte loop many", calling(context.Background(), buildByteLoopBody, loopArgs(loopTripsMany))},
	{"leaf call", calling(context.Background(), buildLeaf, leafArgs)},
	{"leaf call polled", calling(livePollCtx, buildLeaf, leafArgs)},
	{"leaf call recorded", func(tg regtest.Target) func() {
		trace.SetEnabled(true)
		return calling(context.Background(), buildLeaf, leafArgs)(tg)
	}},
}

// livePollCtx is a context that can be canceled and never is.
var livePollCtx, _ = context.WithCancel(context.Background())

// leafArgs is the leaf's arguments.
func leafArgs(uint64) []core.Value { return []core.Value{core.I(12345), core.I(678)} }

// loopArgs is loop_long's body's arguments: a buffer and the trip count.
func loopArgs(trips int32) func(buf uint64) []core.Value {
	return func(buf uint64) []core.Value { return []core.Value{core.P(buf), core.I(trips)} }
}

// calling is the setup of an exec row: a machine, and the function build
// makes called warm under ctx, with the arguments args gives for a 32-byte
// buffer.
func calling(ctx context.Context, build func(core.Backend) (*core.Func, error), args func(buf uint64) []core.Value) func(regtest.Target) func() {
	return func(tg regtest.Target) func() {
		m := tg.NewMachine()
		fn := must(build(tg.Backend))
		args := args(must(m.Alloc(32)))
		call := func() {
			if _, _, err := m.CallWithStats(ctx, core.CallOpts{}, fn, args...); err != nil {
				panic(err)
			}
		}
		for i := 0; i < 4; i++ {
			call()
		}
		return call
	}
}

// decoding is the setup of a decode row: the function build makes,
// installed, and a body its words decode into, from their rows, warm.
func decoding(build func(core.Backend) (*core.Func, error)) func(regtest.Target) func() {
	return func(tg regtest.Target) func() {
		m := tg.NewMachine()
		fn := must(build(tg.Backend))
		if err := m.Install(fn); err != nil {
			panic(err)
		}
		rows := make([]*vexec.Row, len(fn.Words))
		for i, w := range fn.Words {
			rows[i] = tg.Backend.ISA().Lookup(w)
		}
		b := &vexec.Body{Base: fn.Addr(), Code: make([]vexec.Instr, len(fn.Words))}
		cpu := m.CPU()
		decode := func() { cpu.Decode(b, fn.Words, rows) }
		for i := 0; i < 4; i++ {
			decode()
		}
		return decode
	}
}

// decodeWords is the number of words of loop_long's body on port.
func decodeWords(port string) int {
	for _, tg := range regtest.Targets() {
		if tg.Name == port {
			return len(must(buildLoopLongBody(tg.Backend)).Words)
		}
	}
	return 0
}

// buildLoopLongBody is loop_long's body around a counted loop.
func buildLoopLongBody(bk core.Backend) (*core.Func, error) { return buildLoopBody(bk, core.TypeI) }

// buildByteLoopBody is the same with an unsigned byte load.
func buildByteLoopBody(bk core.Backend) (*core.Func, error) { return buildLoopBody(bk, core.TypeUC) }

// buildLoopBody is loop_long's body around a counted loop, its load of type ty.
func buildLoopBody(bk core.Backend, ty core.Type) (*core.Func, error) {
	a := core.NewAsm(bk)
	args, err := a.BeginTypes([]core.Type{core.TypeP, core.TypeI}, core.Leaf)
	if err != nil {
		return nil, err
	}
	p, n := args[0], args[1]
	acc, x, t := core.GPR(0), core.GPR(0), core.GPR(0)
	for _, r := range []*core.Reg{&acc, &x, &t} {
		if *r, err = a.GetReg(core.Temp); err != nil {
			return nil, err
		}
	}
	const I = core.TypeI
	a.SetI(I, acc, 0)
	top := a.NewLabel()
	a.Bind(top)
	a.LdI(ty, x, p, 0)
	a.ALUI(core.OpAdd, I, t, acc, 7)
	a.ALU(core.OpXor, I, acc, acc, t)
	a.ALUI(core.OpLsh, I, t, t, 2)
	a.ALU(core.OpSub, I, acc, acc, t)
	a.ALUI(core.OpRsh, I, t, acc, 3)
	a.ALU(core.OpOr, I, acc, acc, t)
	a.ALU(core.OpAdd, I, acc, acc, x)
	a.ALUI(core.OpSub, I, n, n, 1)
	a.BrI(core.OpBgt, I, n, 0, top)
	a.Ret(I, acc)
	return a.End()
}

// buildLeaf is call_hot's leaf shape: five add-immediate, xor pairs and a
// decrement on its first argument.
func buildLeaf(bk core.Backend) (*core.Func, error) {
	a := core.NewAsm(bk)
	args, err := a.Begin("%i%i", core.Leaf)
	if err != nil {
		return nil, err
	}
	x, y := args[0], args[1]
	for i := int64(0); i < 5; i++ {
		a.Addii(x, x, i)
		a.Xori(x, x, y)
	}
	a.Subii(x, x, 1)
	a.Reti(x)
	return a.End()
}

// execCountGolden is the exec rows' counts, per toolchain, held exactly
// where the toolchain matches: the decode of loop_long's body (32 words on
// mips, 31 on sparc and alpha), a trip of it, one with a byte load, a
// warm leaf call, and the same call polled and recorded.  Before the
// ports' loops called
// nothing they were 555, 596 and 577 a trip and 1,422, 1,359 and 1,350 a
// call; before the call body was one and read the simulator's state in
// place, a call was 1,414, 1,271 and 1,291; before predecode settled each
// instruction's bookkeeping, a decode was 6,363, 5,040 and 5,965, a trip
// 383, 409 and 422 and a call 997, 907 and 928; before core reached the
// run loop directly, a decode was 5,893,
// 4,971 and 5,609 and a call 954, 833 and 806 (polled 1,047, 926 and 899,
// recorded 1,198, 1,077 and 1,050); before the run loop handed what its
// Loop does not run to the port's Step, a call was 881, 768 and 752
// (polled 987, 874 and 858, recorded 1,149, 1,036 and 1,020), sparc's
// trip 313 and a byte load's trip 562, 575 and 339.
var execCountGolden = map[string]map[string]int{
	"go1.24.0/amd64/v1": {
		"mips decode": 5889, "sparc decode": 4967, "alpha decode": 5605,
		"mips byte load trip": 749, "sparc byte load trip": 755, "alpha byte load trip": 339,
		"mips loop trip": 288, "mips leaf call": 873, "mips leaf call polled": 979, "mips leaf call recorded": 1141,
		"sparc loop trip": 314, "sparc leaf call": 762, "sparc leaf call polled": 868, "sparc leaf call recorded": 1030,
		"alpha loop trip": 302, "alpha leaf call": 745, "alpha leaf call polled": 851, "alpha leaf call recorded": 1013,
	},
}

// execCountBudget is the most an exec row may cost on any toolchain: a
// decode, a trip (with a word or a byte load), and a warm leaf call, polled, recorded or neither, at
// most 5% above its count on the golden toolchain.
var execCountBudget = map[string]int{
	"mips decode": 6183, "sparc decode": 5215, "alpha decode": 5885,
	"mips loop trip": 303, "sparc loop trip": 329, "alpha loop trip": 318,
	"mips byte load trip": 786, "sparc byte load trip": 793, "alpha byte load trip": 356,
	"mips leaf call": 925, "sparc leaf call": 806, "alpha leaf call": 790,
	"mips leaf call polled": 1036, "sparc leaf call polled": 918, "alpha leaf call polled": 901,
	"mips leaf call recorded": 1206, "sparc leaf call recorded": 1088, "alpha leaf call recorded": 1071,
}

// execCoreBudget and execExecBudget are the most core's and exec's shares
// of an exec row may cost on any toolchain, 5% above their counts on the
// golden toolchain (core's was 296 on every port, exec's 251, 217 and 173,
// before core reached the run loop directly).
var (
	execCoreBudget = map[string]int{"mips leaf call": 287, "sparc leaf call": 287, "alpha leaf call": 287}
	execExecBudget = map[string]int{"mips leaf call": 240, "sparc leaf call": 191, "alpha leaf call": 158}
)

// TestExecHostInstructions counts the host instructions of the port's
// Decode of loop_long's body, of a trip of it, the difference of two trip
// counts over the trips between them, and of a warm leaf call, on mips
// (with -hostcount.all, on every port), and holds each to its budget and,
// on the toolchain the golden counts were taken with, to its count.
func TestExecHostInstructions(t *testing.T) {
	key := hostCountKey()
	golden := execCountGolden[key]
	for _, port := range hostCountPorts(t) {
		c, entries := countHostInstructions(t, "exec", port)
		trip := func(few, many hostCount) hostCount {
			n := loopTripsMany - loopTripsFew
			trip := hostCount{n: (many.n - few.n) / n, pkgs: map[string]int{}}
			if (many.n-few.n)%n != 0 {
				t.Errorf("%s: %d host instructions over %d trips is not the same each trip", port, many.n-few.n, n)
			}
			for p, k := range many.pkgs {
				if d := (k - few.pkgs[p]) / n; d != 0 {
					trip.pkgs[p] = d
				}
			}
			return trip
		}
		t.Logf("%s %s decode: %.1f host instructions a word", key, port, float64(c["decode"].n)/float64(decodeWords(port)))
		// A 32-byte move of the port's Loop has moved loop_long by up to
		// 25% at equal counts: a timing is read beside where it starts.
		run := entries["repro/internal/"+port+".(*CPU).Loop"]
		t.Logf("%s %s loop: (*CPU).Loop at %#x, %d mod 64", key, port, run, run%64)
		for _, row := range []struct {
			name string
			c    hostCount
		}{
			{"decode", c["decode"]},
			{"loop trip", trip(c["loop few"], c["loop many"])},
			{"byte load trip", trip(c["byte loop few"], c["byte loop many"])},
			{"leaf call", c["leaf call"]},
			{"leaf call polled", c["leaf call polled"]},
			{"leaf call recorded", c["leaf call recorded"]},
		} {
			name := port + " " + row.name
			t.Logf("%s %s: %d host instructions (%v)", key, name, row.c.n, row.c)
			if b := execCountBudget[name]; row.c.n > b {
				t.Errorf("%s: %d host instructions, budget %d", name, row.c.n, b)
			}
			if b, ok := execCoreBudget[name]; ok && row.c.pkgs["core"] > b {
				t.Errorf("%s: core's share is %d host instructions, budget %d", name, row.c.pkgs["core"], b)
			}
			if b, ok := execExecBudget[name]; ok && row.c.pkgs["exec"] > b {
				t.Errorf("%s: exec's share is %d host instructions, budget %d", name, row.c.pkgs["exec"], b)
			}
			if want, ok := golden[name]; ok && row.c.n != want {
				t.Errorf("%s: %d host instructions, %d on %s", name, row.c.n, want, key)
			}
		}
	}
}

// hostCountGolden is each row's count, per toolchain: the rows are held to
// it exactly where the toolchain matches (a changed count is a changed
// emit path: say why in CHANGES and take the new count), and only to
// hostCountBudget elsewhere.
var hostCountGolden = map[string]map[string]int{
	"go1.24.0/amd64/v1": {
		"mips ALU": 55, "mips ALUI": 60, "mips LdI": 53, "mips StI": 53,
		"mips Ld": 188, "mips St": 192,
		"mips SetI": 93, "mips Unary": 94,
		"mips Br+NewLabel+Bind": 175, "mips BrI+NewLabel+Bind": 172,
		"sparc ALU": 55, "sparc ALUI": 60, "sparc LdI": 53, "sparc StI": 53,
		"sparc Ld": 51, "sparc St": 51,
		"sparc SetI": 93, "sparc Unary": 94,
		"sparc Br+NewLabel+Bind": 175, "sparc BrI+NewLabel+Bind": 188,
		"alpha ALU": 55, "alpha ALUI": 60, "alpha LdI": 53, "alpha StI": 53,
		"alpha Ld": 188, "alpha St": 192,
		"alpha SetI": 115, "alpha Unary": 94,
		"alpha Br+NewLabel+Bind": 175, "alpha BrI+NewLabel+Bind": 172,
	},
}

// hostCountBudget is the most a template row may cost on any toolchain.
var hostCountBudget = map[string]int{"ALU": 64, "ALUI": 64, "LdI": 64, "StI": 64}

func init() {
	if which := os.Getenv(hostCountEnv); which != "" {
		hostCountChild(which)
		os.Exit(0)
	}
}

// hostCountChild runs each row of a set on a port, "rows:port", each
// call between two breakpoints, after the row's setup has warmed it.
func hostCountChild(which string) {
	set, port, _ := strings.Cut(which, ":")
	for _, tg := range regtest.Targets() {
		if tg.Name != port {
			continue
		}
		for _, row := range hostRowSets[set] {
			call := row.setup(tg)
			for i := 0; i < hostCountCalls; i++ {
				runtime.Breakpoint()
				call()
				runtime.Breakpoint()
			}
		}
	}
}

// hostRowSets is every set of rows a test counts, by name.
var hostRowSets = map[string][]hostRow{"emit": emitRows, "exec": execRows}

// hostCountPorts is the ports a test counts on: mips, or with
// -hostcount.all every port; none where the counts would not be of
// uninstrumented linux/amd64 code.
func hostCountPorts(t *testing.T) []string {
	if raceEnabled || testing.CoverMode() != "" || runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("counts are of uninstrumented linux/amd64 code")
	}
	if *hostCountAll {
		return []string{"mips", "sparc", "alpha"}
	}
	return []string{"mips"}
}

// hostCountKey is the toolchain the golden counts are keyed by.
func hostCountKey() string { return runtime.Version() + "/" + runtime.GOARCH + "/" + goamd64() }

// TestEmitHostInstructions counts the host instructions of one call of each
// emit row, on mips (with -hostcount.all, on every port), and holds each to
// its budget and, on the toolchain the golden counts were taken with, to
// its count.
func TestEmitHostInstructions(t *testing.T) {
	key := hostCountKey()
	golden := hostCountGolden[key]
	for _, port := range hostCountPorts(t) {
		counts, _ := countHostInstructions(t, "emit", port)
		for _, row := range emitRows {
			n := counts[row.name].n
			t.Logf("%s %s %s: %d host instructions a call", key, port, row.name, n)
			if b, ok := hostCountBudget[row.name]; ok && n > b {
				t.Errorf("%s %s: %d host instructions a call, budget %d", port, row.name, n, b)
			}
			if want, ok := golden[port+" "+row.name]; ok && n != want {
				t.Errorf("%s %s: %d host instructions a call, %d on %s", port, row.name, n, want, key)
			}
		}
	}
}

// hostCount is one row's count, in all and by package.
type hostCount struct {
	n    int
	pkgs map[string]int // by the package's last path element ("core")
}

// String lists the count's packages, the dearest first.
func (c hostCount) String() string {
	pkgs := make([]string, 0, len(c.pkgs))
	for p := range c.pkgs {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		a, b := pkgs[i], pkgs[j]
		return c.pkgs[a] > c.pkgs[b] || c.pkgs[a] == c.pkgs[b] && a < b
	})
	var b strings.Builder
	for i, p := range pkgs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d", p, c.pkgs[p])
	}
	return b.String()
}

// hostPackage is the last path element of the package of a function named
// as runtime.FuncForPC names it: "core" for
// "repro/internal/core.(*Machine).CallWithStats".
func hostPackage(fn string) string {
	fn = fn[strings.LastIndex(fn, "/")+1:]
	if i := strings.Index(fn, "."); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// countHostInstructions runs the child for a set of rows on port under
// ptrace and returns each row's least count over its calls, with that
// call's count by package, and the entry address of each counted function
// by name.
func countHostInstructions(t *testing.T, set, port string) (map[string]hostCount, map[string]uint64) {
	runtime.LockOSThread() // ptrace requests must come from the tracing thread
	defer runtime.UnlockOSThread()
	var out bytes.Buffer
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), hostCountEnv+"="+set+":"+port, "GOGC=off", "GODEBUG=asyncpreemptoff=1", "GOMAXPROCS=1")
	cmd.Stdout, cmd.Stderr = &out, &out
	cmd.SysProcAttr = &syscall.SysProcAttr{Ptrace: true}
	if err := cmd.Start(); err != nil {
		t.Skipf("ptrace refused: %v", err)
	}
	pid := cmd.Process.Pid
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	stop := func() {
		var ws syscall.WaitStatus
		if _, err := syscall.Wait4(pid, &ws, 0, nil); err != nil || !ws.Stopped() || ws.StopSignal() != syscall.SIGTRAP {
			t.Fatalf("child %s: wait %v, status %#x: %s", port, err, ws, out.String())
		}
	}
	var regs syscall.PtraceRegs
	pc := func() uint64 {
		if err := syscall.PtraceGetRegs(pid, &regs); err != nil {
			t.Fatal(err)
		}
		return regs.Rip
	}
	// A preemption request (sysmon's, every 10 ms of the child's slow,
	// stepped time) fails the stack check of the next function prologue:
	// its stub spills, calls morestack, reloads and jumps back to the
	// entry.  What ran of that function before morestack, and its stub,
	// is not counted.
	type pcInfo struct {
		counted, entry, morestack bool
		pkg                       string
	}
	infos, entries := map[uint64]pcInfo{}, map[string]uint64{}
	info := func(pc uint64) pcInfo {
		in, ok := infos[pc]
		if !ok {
			if f := runtime.FuncForPC(uintptr(pc)); f != nil {
				name := f.Name()
				in.morestack = strings.HasPrefix(name, "runtime.morestack")
				in.counted = strings.HasPrefix(name, "repro/") && !strings.Contains(name, "morestack")
				if in.counted {
					entries[name] = uint64(f.Entry())
				}
				in.entry = f.Entry() == uintptr(pc)
				in.pkg = hostPackage(name)
			}
			infos[pc] = in
		}
		return in
	}
	stop() // the exec
	counts := map[string]hostCount{}
	op := []byte{0}
	for _, row := range hostRowSets[set] {
		var least []string
		for call := 0; call < hostCountCalls; call++ {
			if err := syscall.PtraceCont(pid, 0); err != nil {
				t.Fatal(err)
			}
			stop() // the opening breakpoint
			if f := runtime.FuncForPC(uintptr(pc() - 1)); f == nil || f.Name() != "runtime.breakpoint" {
				t.Skipf("the child's code is not at the parent's addresses (at %#x)", regs.Rip)
			}
			// trail is each counted instruction's package, in order.
			var trail []string
			atEntry, entry, resume := 0, uint64(0), uint64(0)
			for {
				at := pc()
				if _, err := syscall.PtracePeekText(pid, uintptr(at), op); err != nil {
					t.Fatal(err)
				}
				if op[0] == 0xCC { // the closing breakpoint: step over it
					regs.Rip++
					if err := syscall.PtraceSetRegs(pid, &regs); err != nil {
						t.Fatal(err)
					}
					break
				}
				switch in := info(at); {
				case in.morestack:
					trail, resume = trail[:atEntry], entry
				case resume != 0 && at != resume:
				default:
					resume = 0
					if in.entry {
						atEntry, entry = len(trail), at
					}
					if in.counted {
						trail = append(trail, in.pkg)
					}
				}
				if err := syscall.PtraceSingleStep(pid); err != nil {
					t.Fatal(err)
				}
				stop()
			}
			if call == 0 || len(trail) < len(least) {
				least = trail
			}
		}
		c := hostCount{n: len(least), pkgs: map[string]int{}}
		for _, pkg := range least {
			c.pkgs[pkg]++
		}
		counts[row.name] = c
	}
	if err := syscall.PtraceCont(pid, 0); err != nil {
		t.Fatal(err)
	}
	var ws syscall.WaitStatus
	if _, err := syscall.Wait4(pid, &ws, 0, nil); err != nil || !ws.Exited() || ws.ExitStatus() != 0 {
		t.Fatalf("child %s did not exit cleanly: %v %#x: %s", port, err, ws, out.String())
	}
	return counts, entries
}

// goamd64 is the GOAMD64 level the test binary was built for.
func goamd64() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				return s.Value
			}
		}
	}
	return "v1"
}
