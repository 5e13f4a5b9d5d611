package repro

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"testing"

	"repro/internal/core"
	"repro/internal/regtest"
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

// hostCountEnv names the port a re-executed test binary counts on.
const hostCountEnv = "REPRO_HOST_COUNT_PORT"

// hostCountCalls is how many measured calls each row takes the least of.
const hostCountCalls = 8

var hostCountAll = flag.Bool("hostcount.all", false, "count the emit rows on every port, not only mips")

// raceEnabled is set by race_test.go under the race detector, whose
// instrumentation the counts would include.
var raceEnabled bool

// emitRow is one measured call of the emit path.
type emitRow struct {
	name string
	call func(a *core.Asm)
}

// The rows' operands: integer registers, a small immediate and a small
// displacement, the accepted case every port has a template for; Ld and
// St take a register offset, one indexed row on sparc and core's mapped
// add and access (two words) on mips and alpha.
var (
	hr1, hr2, hr3 = core.GPR(8), core.GPR(9), core.GPR(10)
	emitRows      = []emitRow{
		{"ALU", func(a *core.Asm) { a.ALU(core.OpAdd, core.TypeI, hr1, hr2, hr3) }},
		{"ALUI", func(a *core.Asm) { a.ALUI(core.OpAdd, core.TypeI, hr1, hr2, 5) }},
		{"LdI", func(a *core.Asm) { a.LdI(core.TypeI, hr1, hr2, 8) }},
		{"StI", func(a *core.Asm) { a.StI(core.TypeI, hr1, hr2, 8) }},
		{"Ld", func(a *core.Asm) { a.Ld(core.TypeI, hr1, hr2, hr3) }},
		{"St", func(a *core.Asm) { a.St(core.TypeI, hr1, hr2, hr3) }},
		{"SetI", func(a *core.Asm) { a.SetI(core.TypeI, hr1, 5) }},
		{"Unary", func(a *core.Asm) { a.Unary(core.OpMov, core.TypeI, hr1, hr2) }},
		{"Br+NewLabel+Bind", func(a *core.Asm) {
			l := a.NewLabel()
			a.Br(core.OpBlt, core.TypeI, hr1, hr2, l)
			a.Bind(l)
		}},
		{"BrI+NewLabel+Bind", func(a *core.Asm) {
			l := a.NewLabel()
			a.BrI(core.OpBne, core.TypeI, hr1, 0, l)
			a.Bind(l)
		}},
	}
)

// hostCountGolden is each row's count, per toolchain: the rows are held to
// it exactly where the toolchain matches (a changed count is a changed
// emit path: say why in CHANGES and take the new count), and only to
// hostCountBudget elsewhere.
var hostCountGolden = map[string]map[string]int{
	"go1.24.0/amd64/v1": {
		"mips ALU": 55, "mips ALUI": 60, "mips LdI": 53, "mips StI": 53,
		"mips Ld": 189, "mips St": 193,
		"mips SetI": 93, "mips Unary": 95,
		"mips Br+NewLabel+Bind": 176, "mips BrI+NewLabel+Bind": 172,
		"sparc ALU": 55, "sparc ALUI": 60, "sparc LdI": 53, "sparc StI": 53,
		"sparc Ld": 51, "sparc St": 51,
		"sparc SetI": 93, "sparc Unary": 95,
		"sparc Br+NewLabel+Bind": 176, "sparc BrI+NewLabel+Bind": 188,
		"alpha ALU": 55, "alpha ALUI": 60, "alpha LdI": 53, "alpha StI": 53,
		"alpha Ld": 189, "alpha St": 193,
		"alpha SetI": 115, "alpha Unary": 95,
		"alpha Br+NewLabel+Bind": 176, "alpha BrI+NewLabel+Bind": 172,
	},
}

// hostCountBudget is the most a template row may cost on any toolchain.
var hostCountBudget = map[string]int{"ALU": 64, "ALUI": 64, "LdI": 64, "StI": 64}

func init() {
	if port := os.Getenv(hostCountEnv); port != "" {
		hostCountChild(port)
		os.Exit(0)
	}
}

// hostCountChild runs every row's measured calls on port, each between two
// breakpoints, after a warm-up that grows every buffer the calls touch.
func hostCountChild(port string) {
	for _, tg := range regtest.Targets() {
		if tg.Name != port {
			continue
		}
		for _, row := range emitRows {
			a := core.NewAsm(tg.Backend)
			for warm := 0; warm < 2; warm++ {
				if _, err := a.Begin("%i%i", core.Leaf); err != nil {
					panic(err)
				}
				for i := 0; i < 256; i++ {
					row.call(a)
				}
				if _, err := a.End(); err != nil {
					panic(err)
				}
			}
			if _, err := a.Begin("%i%i", core.Leaf); err != nil {
				panic(err)
			}
			for i := 0; i < hostCountCalls; i++ {
				runtime.Breakpoint()
				row.call(a)
				runtime.Breakpoint()
			}
		}
	}
}

// TestEmitHostInstructions counts the host instructions of one call of each
// emit row, on mips (with -hostcount.all, on every port), and holds each to
// its budget and, on the toolchain the golden counts were taken with, to
// its count.
func TestEmitHostInstructions(t *testing.T) {
	if raceEnabled || testing.CoverMode() != "" || runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("counts are of uninstrumented linux/amd64 code")
	}
	ports := []string{"mips"}
	if *hostCountAll {
		ports = []string{"mips", "sparc", "alpha"}
	}
	key := runtime.Version() + "/" + runtime.GOARCH + "/" + goamd64()
	golden := hostCountGolden[key]
	for _, port := range ports {
		counts := countHostInstructions(t, port)
		for _, row := range emitRows {
			n := counts[row.name]
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

// countHostInstructions runs the child for port under ptrace and returns
// each row's least count over its calls.
func countHostInstructions(t *testing.T, port string) map[string]int {
	runtime.LockOSThread() // ptrace requests must come from the tracing thread
	defer runtime.UnlockOSThread()
	var out bytes.Buffer
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), hostCountEnv+"="+port, "GOGC=off", "GODEBUG=asyncpreemptoff=1", "GOMAXPROCS=1")
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
	names := map[uint64]bool{}
	counted := func(pc uint64) bool {
		in, ok := names[pc]
		if !ok {
			name := ""
			if f := runtime.FuncForPC(uintptr(pc)); f != nil {
				name = f.Name()
			}
			in = strings.HasPrefix(name, "repro/") && !strings.Contains(name, "morestack")
			names[pc] = in
		}
		return in
	}
	stop() // the exec
	counts := map[string]int{}
	op := []byte{0}
	for _, row := range emitRows {
		least := -1
		for call := 0; call < hostCountCalls; call++ {
			if err := syscall.PtraceCont(pid, 0); err != nil {
				t.Fatal(err)
			}
			stop() // the opening breakpoint
			if f := runtime.FuncForPC(uintptr(pc() - 1)); f == nil || f.Name() != "runtime.breakpoint" {
				t.Skipf("the child's code is not at the parent's addresses (at %#x)", regs.Rip)
			}
			n := 0
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
				if counted(at) {
					n++
				}
				if err := syscall.PtraceSingleStep(pid); err != nil {
					t.Fatal(err)
				}
				stop()
			}
			if least < 0 || n < least {
				least = n
			}
		}
		counts[row.name] = least
	}
	if err := syscall.PtraceCont(pid, 0); err != nil {
		t.Fatal(err)
	}
	var ws syscall.WaitStatus
	if _, err := syscall.Wait4(pid, &ws, 0, nil); err != nil || !ws.Exited() || ws.ExitStatus() != 0 {
		t.Fatalf("child %s did not exit cleanly: %v %#x: %s", port, err, ws, out.String())
	}
	return counts
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
