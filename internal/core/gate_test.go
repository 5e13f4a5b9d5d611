package core_test

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/regtest"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's behaviour")

// gateState is one state an Asm can be in when an emitter is called.
type gateState struct {
	name string
	make func(core.Backend) *core.Asm
}

// gateStates covers every way the emitters' accepted path can be shut: no
// build open, a build open with nothing wrong, a build ended, a sticky
// error, recording armed, a recording taken away mid-build, and a
// recording ScheduleDelay has marked as beyond replay.
var gateStates = []gateState{
	{"idle", core.NewAsm},
	{"building", func(b core.Backend) *core.Asm { return begun(b, false) }},
	{"ended", func(b core.Backend) *core.Asm {
		a := begun(b, false)
		a.RetVoid()
		if _, err := a.End(); err != nil {
			panic(err)
		}
		return a
	}},
	{"sticky", func(b core.Backend) *core.Asm {
		a := begun(b, false)
		a.ALU(core.Op(200), core.TypeI, 1, 2, 3)
		return a
	}},
	{"recording", func(b core.Backend) *core.Asm { return begun(b, true) }},
	{"taken", func(b core.Backend) *core.Asm {
		a := begun(b, true)
		a.TakeRecording()
		return a
	}},
	{"unsupported", func(b core.Backend) *core.Asm {
		a := begun(b, true)
		a.ScheduleDelay(func() {}, func() {})
		return a
	}},
}

func begun(b core.Backend, record bool) *core.Asm {
	a := core.NewAsm(b)
	a.Record(record)
	if _, err := a.Begin("%i%i", core.Leaf); err != nil {
		panic(err)
	}
	return a
}

// gateCase is one call of one door: its description and the call.
type gateCase struct {
	key  string
	call func(a *core.Asm)
}

var (
	g5, g6, g7 = core.GPR(5), core.GPR(6), core.GPR(7)
	f5, f6, f7 = core.FPR(5), core.FPR(6), core.FPR(7)
)

// Operand cases: both banks, mixed banks, NoReg, and registers past either
// bank or negative, in each position.
var (
	regs3 = [][3]core.Reg{
		{g5, g6, g7}, {f5, f6, f7}, {f5, g6, f7}, {g5, f6, g7}, {f5, f6, g7},
		{core.NoReg, g6, g7}, {g5, g6, core.NoReg}, {f5, f6, core.NoReg},
		{128, g6, g7}, {f5, 192, f7}, {63, 0, 31}, {127, 64, 95},
		{-64, f6, f7}, {1000, 1, 2},
	}
	regs2 = [][2]core.Reg{
		{g5, g6}, {f5, f6}, {g5, f6}, {f5, g6}, {core.NoReg, g6}, {g5, core.NoReg},
		{128, g6}, {127, 0}, {63, 63}, {-64, 1}, {g5, 192},
	}
	regs1 = []core.Reg{g5, f5, core.NoReg, 128, 63, 127, -64, 192}
)

// gateOps is the ops a door is swept over: its own, one of another kind,
// and one outside the instruction set.
func gateOps(lo, hi core.Op, other core.Op) []core.Op {
	var ops []core.Op
	for op := lo; op <= hi; op++ {
		ops = append(ops, op)
	}
	return append(ops, other, core.Op(200))
}

// gateTypes is every type and one no Type names.
func gateTypes() []core.Type {
	var ts []core.Type
	for t := core.TypeV; t < core.NumTypes; t++ {
		ts = append(ts, t)
	}
	return append(ts, core.Type(77))
}

// edges is the immediates around a template's range: each end and a step
// either side of it, and zero; without a template, a few that any field or
// none holds.
func edges(tp *core.Template) []int64 {
	if tp == nil {
		return []int64{0, -1, 1 << 40}
	}
	var out []int64
	for _, v := range []int64{0, tp.Lo - 1, tp.Lo, tp.Lo + 1, tp.Hi - 1, tp.Hi, tp.Hi + 1} {
		if !containsImm(out, v) {
			out = append(out, v)
		}
	}
	return out
}

func containsImm(s []int64, v int64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// gateCases lists every door's cases for a port whose templates are tps.
func gateCases(tps []core.Template) map[string][]gateCase {
	tmpl := map[string]*core.Template{}
	for i, tp := range tps {
		tmpl[fmt.Sprint(tp.Door, tp.Op, tp.T)] = &tps[i]
	}
	find := func(door string, op core.Op, t core.Type) *core.Template {
		return tmpl[fmt.Sprint(door, op, t)]
	}
	cases := map[string][]gateCase{}
	add := func(door, key string, call func(a *core.Asm)) {
		cases[door] = append(cases[door], gateCase{key, call})
	}
	for _, t := range gateTypes() {
		for _, op := range gateOps(core.OpAdd, core.OpRsh, core.OpNeg) {
			for _, r := range regs3 {
				add("ALU", fmt.Sprint(op, t, r), func(a *core.Asm) { a.ALU(op, t, r[0], r[1], r[2]) })
			}
			for _, r := range regs2 {
				for _, imm := range edges(find("ALUI", op, t)) {
					add("ALUI", fmt.Sprint(op, t, r, imm), func(a *core.Asm) { a.ALUI(op, t, r[0], r[1], imm) })
				}
			}
		}
		for _, r := range regs2 {
			for _, imm := range edges(find("LdI", core.OpLd, t)) {
				add("LdI", fmt.Sprint(t, r, imm), func(a *core.Asm) { a.LdI(t, r[0], r[1], imm) })
			}
			for _, imm := range edges(find("StI", core.OpSt, t)) {
				add("StI", fmt.Sprint(t, r, imm), func(a *core.Asm) { a.StI(t, r[0], r[1], imm) })
			}
		}
		for _, r := range regs3 {
			add("Ld", fmt.Sprint(t, r), func(a *core.Asm) { a.Ld(t, r[0], r[1], r[2]) })
			add("St", fmt.Sprint(t, r), func(a *core.Asm) { a.St(t, r[0], r[1], r[2]) })
		}
		for _, r := range regs1 {
			add("Ret", fmt.Sprint(t, r), func(a *core.Asm) { a.Ret(t, r) })
			for _, imm := range []int64{0, 1, -1, 32767, 32768, -32768, -32769, 1 << 31, 1 << 40, math.MinInt64, math.MaxInt64} {
				add("SetI", fmt.Sprint(t, r, imm), func(a *core.Asm) { a.SetI(t, r, imm) })
			}
		}
		for _, op := range gateOps(core.OpCom, core.OpNeg, core.OpAdd) {
			for _, r := range regs2 {
				add("Unary", fmt.Sprint(op, t, r), func(a *core.Asm) { a.Unary(op, t, r[0], r[1]) })
			}
		}
		for _, op := range gateOps(core.OpBlt, core.OpBne, core.OpAdd) {
			for _, r := range regs2 {
				add("Br", fmt.Sprint(op, t, r), func(a *core.Asm) { a.Br(op, t, r[0], r[1], a.NewLabel()) })
			}
			add("Br", fmt.Sprint(op, t, "unknown label"), func(a *core.Asm) { a.Br(op, t, g5, g6, 99) })
			for _, r := range regs1 {
				for _, imm := range []int64{0, 1, -1, 32767, 32768, 1 << 40} {
					add("BrI", fmt.Sprint(op, t, r, imm), func(a *core.Asm) { a.BrI(op, t, r, imm, a.NewLabel()) })
				}
			}
			add("BrI", fmt.Sprint(op, t, "unknown label"), func(a *core.Asm) { a.BrI(op, t, g5, 1, 99) })
		}
	}
	add("Bind", "fresh", func(a *core.Asm) { a.Bind(a.NewLabel()) })
	add("Bind", "unknown", func(a *core.Asm) { a.Bind(99) })
	add("Bind", "negative", func(a *core.Asm) { a.Bind(-1) })
	add("Bind", "twice", func(a *core.Asm) {
		l := a.NewLabel()
		a.Bind(l)
		a.Bind(l)
	})
	return cases
}

var gateSentinels = []error{
	core.ErrBadType, core.ErrBadReg, core.ErrState, core.ErrBadLabel, core.ErrUnboundLabel,
	core.ErrBranchRange, core.ErrFrameRange, core.ErrLeafCall, core.ErrRegExhausted,
}

// observe runs c on a fresh Asm in state s and says what came of it: the
// words it appended, InsnCount, the error's sentinel and text, and what the
// recording (if any) holds.
func observe(bk core.Backend, s gateState, c gateCase) string {
	a := s.make(bk)
	start := a.Buf().Len()
	c.call(a)
	sentinel := "-"
	for _, e := range gateSentinels {
		if errors.Is(a.Err(), e) {
			sentinel = e.Error()
			break
		}
	}
	rec := "none"
	if r := a.TakeRecording(); r != nil {
		_, why := r.Eligible()
		rec = fmt.Sprintf("%d events %q", len(r.Events), why)
		if n := len(r.Events); n > 0 {
			rec += fmt.Sprint(" last ", r.Events[n-1].Kind)
		}
	}
	return fmt.Sprintf("%s: words %x insns %d err %s %q rec %s",
		c.key, a.Buf().Words()[start:], a.InsnCount(), sentinel, fmt.Sprint(a.Err()), rec)
}

// TestGateAgreement holds the generic emitters' one-test gate to their
// checks: on every port, each door over its ops, every type, registers of
// both banks, NoReg and out of range, and immediates at each template's
// ends and a step past them, in every state of gateStates, gives the
// words, InsnCount, error sentinel and text, and recording that
// testdata/gate_agreement.golden holds.  The file keeps one digest of those
// observations per port, door and state.  It was captured at d92069f, where
// every call took each check in turn, so a gate that accepts anything the
// checks refuse, or skips a recording, changes a digest; a changed digest
// is a behaviour change, not a file to regenerate.  The Unary and Br lines
// were captured while the ports still encoded those doors by hand, before
// the mapping took them.
func TestGateAgreement(t *testing.T) {
	var got []string
	for _, tg := range regtest.Targets() {
		cases := gateCases(tg.Backend.Templates().All())
		for _, door := range []string{"ALU", "ALUI", "LdI", "StI", "Ld", "St", "SetI", "BrI", "Bind", "Ret", "Unary", "Br"} {
			for _, s := range gateStates {
				h := sha256.New()
				for _, c := range cases[door] {
					fmt.Fprintln(h, observe(tg.Backend, s, c))
				}
				got = append(got, fmt.Sprintf("%s %s %s\t%d %x", tg.Name, door, s.name, len(cases[door]), h.Sum(nil)[:12]))
			}
		}
	}
	regtest.Golden(t, "testdata/gate_agreement.golden", got, *update)
}
