package core

import (
	"fmt"
	"slices"
	"testing"
)

// buildRecorded emits a small function with branches, a loop, locals,
// mid-body temp allocation, and memory traffic — the shapes the superblock
// rewriter has to replay — and returns the function plus its recording.
func buildRecorded(t *testing.T, a *Asm) (*Func, *Recording) {
	t.Helper()
	a.Record(true)
	a.SetName("rec_rt")
	args, err := a.Begin("%i%p", Leaf)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	n, base := args[0], args[1]
	sum, err := a.GetReg(Var)
	if err != nil {
		t.Fatalf("GetReg: %v", err)
	}
	i, err := a.GetReg(Var)
	if err != nil {
		t.Fatalf("GetReg: %v", err)
	}
	slot := a.Local(TypeI)
	a.SetI(TypeI, sum, 0)
	a.SetI(TypeI, i, 0)
	loop, done := a.NewLabel(), a.NewLabel()
	a.Bind(loop)
	a.Br(OpBge, TypeI, i, n, done)
	tmp, err := a.GetReg(Temp)
	if err != nil {
		t.Fatalf("GetReg: %v", err)
	}
	a.LdI(TypeI, tmp, base, 0)
	a.ALU(OpAdd, TypeI, sum, sum, tmp)
	a.PutReg(tmp)
	a.StLocal(TypeI, sum, slot)
	a.LdLocal(TypeI, sum, slot)
	a.ALUI(OpAdd, TypeI, i, i, 1)
	a.Jmp(loop)
	a.Bind(done)
	a.Nop()
	a.Ret(TypeI, sum)
	fn, err := a.End()
	if err != nil {
		t.Fatalf("End: %v", err)
	}
	rec := a.TakeRecording()
	if rec == nil {
		t.Fatal("no recording")
	}
	return fn, rec
}

// TestRecordReplayRoundTrip verifies the foundational invariant: replaying
// a recording's allocation history and then its instruction events in
// original order reproduces the function word for word.
func TestRecordReplayRoundTrip(t *testing.T) {
	a := NewAsm(newFake())
	fn, rec := buildRecorded(t, a)
	if ok, why := rec.Eligible(); !ok {
		t.Fatalf("recording ineligible: %s", why)
	}

	b := NewAsm(newFake())
	b.SetName(rec.Name)
	if _, err := b.BeginFromRecording(rec); err != nil {
		t.Fatalf("BeginFromRecording: %v", err)
	}
	labels := map[Label]Label{}
	mapLabel := func(l Label) Label {
		if m, ok := labels[l]; ok {
			return m
		}
		m := b.NewLabel()
		labels[l] = m
		return m
	}
	for _, ev := range rec.Events {
		if ev.Kind.IsAlloc() {
			continue
		}
		b.Replay(ev, mapLabel)
	}
	fn2, err := b.End()
	if err != nil {
		t.Fatalf("replay End: %v", err)
	}

	if len(fn.Words) != len(fn2.Words) {
		t.Fatalf("word count: original %d, replay %d", len(fn.Words), len(fn2.Words))
	}
	for i := range fn.Words {
		if fn.Words[i] != fn2.Words[i] {
			t.Fatalf("word %d: original %#x, replay %#x", i, fn.Words[i], fn2.Words[i])
		}
	}
	if fn.Entry != fn2.Entry || fn.FrameBytes != fn2.FrameBytes || fn.Result != fn2.Result {
		t.Fatalf("metadata mismatch: entry %d/%d frame %d/%d result %v/%v",
			fn.Entry, fn2.Entry, fn.FrameBytes, fn2.FrameBytes, fn.Result, fn2.Result)
	}
}

// TestRecordUnsupported verifies that functions beyond the replay
// guarantee say so instead of replaying wrong.
func TestRecordUnsupported(t *testing.T) {
	a := NewAsm(newFake())
	a.Record(true)
	args, err := a.Begin("%i", NonLeaf)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	a.StartCall("%i")
	a.SetArg(0, args[0])
	a.CallSym("helper")
	a.RetVoid()
	if _, err := a.End(); err != nil {
		t.Fatalf("End: %v", err)
	}
	rec := a.TakeRecording()
	if ok, _ := rec.Eligible(); ok {
		t.Fatal("recording with a call claims to be replayable")
	}
	if _, err := NewAsm(newFake()).BeginFromRecording(rec); err == nil {
		t.Fatal("BeginFromRecording accepted an ineligible recording")
	}
}

// TestRecordDetached verifies recordings don't leak across builds on a
// pooled assembler.
func TestRecordDetached(t *testing.T) {
	a := NewAsm(newFake())
	_, rec := buildRecorded(t, a)
	n := len(rec.Events)

	// A second build must start a fresh recording, not append.
	if _, err := a.Begin("%i", Leaf); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	a.RetVoid()
	if _, err := a.End(); err != nil {
		t.Fatalf("End: %v", err)
	}
	rec2 := a.TakeRecording()
	if len(rec.Events) != n {
		t.Fatal("first recording mutated by second build")
	}
	if rec2 == nil || len(rec2.Events) != 1 {
		t.Fatalf("second recording wrong: %+v", rec2)
	}

	// Disarmed: no recording.
	a.Record(false)
	if _, err := a.Begin("%i", Leaf); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	a.RetVoid()
	if _, err := a.End(); err != nil {
		t.Fatalf("End: %v", err)
	}
	if a.TakeRecording() != nil {
		t.Fatal("recording produced while disarmed")
	}
}

// emulatingFake is the fake port with one operation routed through a
// runtime helper, the way the Alpha routes integer division, and one
// extension instruction in hardware.
type emulatingFake struct{ *fakeBackend }

func (emulatingFake) EmulatedOp(op Op, t Type) (string, bool) {
	return "__div_i", op == OpDiv && t == TypeI
}

// TryExt gives the port cmoveq in hardware; cmovne stays a synthesis.
func (emulatingFake) TryExt(b *Buf, name string, _ Type, _ Reg, _ []Reg) (bool, error) {
	if name != "cmoveq" {
		return false, nil
	}
	b.Emit(0x1e000000)
	return true, nil
}

// buildEveryEvent emits at least one event of every kind a recording can
// hold, through the generic front doors, with refused instructions mixed in
// that must leave no event behind.
func buildEveryEvent(t *testing.T, a *Asm) *Func {
	t.Helper()
	a.SetName("every_event")
	args, err := a.Begin("%i%p%d", NonLeaf)
	if err != nil {
		t.Fatal(err)
	}
	n, base, x := args[0], args[1], args[2]
	v, _ := a.GetReg(Var)
	tmp, _ := a.GetReg(Temp)
	f, _ := a.GetFReg(Temp)
	if a.Err() != nil || v == NoReg || tmp == NoReg || f == NoReg {
		t.Fatalf("allocation failed: %v %v %v %v", a.Err(), v, tmp, f)
	}
	h := a.S(1)
	slot := a.Local(TypeD)
	loop, done := a.NewLabel(), a.NewLabel()
	a.SetI(TypeI, v, 0)
	a.SetF(f, 1.5)
	a.SetD(x, 2.5)
	a.Bind(loop)
	a.Br(OpBge, TypeI, v, n, done)
	a.Ld(TypeUC, tmp, base, v)
	a.LdI(TypeI, h, base, 8)
	a.ALU(OpAdd, TypeI, tmp, tmp, h)
	a.ALU(OpDiv, TypeI, tmp, tmp, n) // emulated: one event, a helper call
	a.ALUI(OpDiv, TypeI, tmp, tmp, 3)
	a.ALU(OpMul, TypeD, x, x, x)
	a.Unary(OpNeg, TypeI, tmp, tmp)
	a.St(TypeS, tmp, base, v)
	a.StI(TypeD, x, a.SP(), slot)
	a.Cvt(TypeI, TypeD, x, tmp)
	a.Cvt(TypeU, TypeF, f, tmp)       // synthesized: one event, not its expansion
	a.Ext("cmovne", TypeI, v, tmp, n) // synthesized: its expansion's events
	a.Ext("cmoveq", TypeI, v, tmp, n) // in hardware: one event
	a.BrI(OpBeq, TypeI, tmp, 7, done)
	a.ALUI(OpAdd, TypeI, v, v, 1)
	a.PutReg(tmp)
	a.Nop()
	a.Jmp(loop)
	a.Bind(done)
	a.Ret(TypeI, v)
	a.RetVoid()
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// eventLine renders every field of ev.
func eventLine(ev RecEvent) string {
	return fmt.Sprintf("%d %s %s %s %s %s %s %d %g L%d @%d %s %t %q %v",
		ev.Kind, ev.Op, ev.T, ev.T2, ev.Rd, ev.Rs1, ev.Rs2, ev.Imm, ev.F, ev.Label, ev.Site, ev.Class, ev.FP, ev.Name, ev.Srcs)
}

// everyEventGolden is buildEveryEvent's recording on emulatingFake at the
// commit before recording moved behind each emitter's own gate (57de026),
// one eventLine per event.
var everyEventGolden = []string{
	`19 add v v r16 r0 r0 0 0 L0 @0 var false "" []`,
	`19 add v v r8 r0 r0 0 0 L0 @0 temp false "" []`,
	`19 add v v f4 r0 r0 0 0 L0 @0 temp true "" []`,
	`22 add v v r17 r0 r0 0 0 L0 @0 var false "" []`,
	`21 add d v r0 r0 r0 24 0 L0 @0 temp false "" []`,
	`3 add i v r16 r0 r0 0 0 L0 @0 temp false "" []`,
	`4 add f v f4 r0 r0 0 1.5 L0 @0 temp false "" []`,
	`5 add d v f12 r0 r0 0 2.5 L0 @0 temp false "" []`,
	`13 add v v r0 r0 r0 0 0 L0 @0 temp false "" []`,
	`10 bge i v r0 r16 r4 0 0 L1 @13 temp false "" []`,
	`6 add uc v r8 r5 r16 0 0 L0 @0 temp false "" []`,
	`7 add i v r17 r5 r0 8 0 L0 @0 temp false "" []`,
	`0 add i v r8 r8 r17 0 0 L0 @0 temp false "" []`,
	`0 div i v r8 r8 r4 0 0 L0 @0 temp false "" []`,
	`1 div i v r8 r8 r0 3 0 L0 @0 temp false "" []`,
	`0 mul d v f12 f12 f12 0 0 L0 @0 temp false "" []`,
	`2 neg i v r8 r8 r0 0 0 L0 @0 temp false "" []`,
	`8 add s v r8 r5 r16 0 0 L0 @0 temp false "" []`,
	`9 add d v f12 r29 r0 24 0 L0 @0 temp false "" []`,
	`17 add i d f12 r8 r0 0 0 L0 @0 temp false "" []`,
	`17 add u f f4 r8 r0 0 0 L0 @0 temp false "" []`,
	`11 beq l v r0 r4 r0 0 0 L3 @64 temp false "" []`,
	`2 mov i v r16 r8 r0 0 0 L0 @0 temp false "" []`,
	`13 add v v r0 r0 r0 0 0 L3 @0 temp false "" []`,
	`18 add i v r16 r0 r0 0 0 L0 @0 temp false "cmoveq" [r8 r4]`,
	`11 beq i v r0 r8 r0 7 0 L1 @68 temp false "" []`,
	`1 add i v r16 r16 r0 1 0 L0 @0 temp false "" []`,
	`20 add v v r8 r0 r0 0 0 L0 @0 temp false "" []`,
	`16 add v v r0 r0 r0 0 0 L0 @0 temp false "" []`,
	`12 add v v r0 r0 r0 0 0 L0 @72 temp false "" []`,
	`13 add v v r0 r0 r0 0 0 L1 @0 temp false "" []`,
	`14 add i v r0 r16 r0 0 0 L0 @0 temp false "" []`,
	`15 add v v r0 r0 r0 0 0 L0 @0 temp false "" []`,
}

// TestRecordingGolden: the recording gate moved from inside record to
// around each event's construction; what is recorded did not.
func TestRecordingGolden(t *testing.T) {
	a := NewAsm(emulatingFake{newFake()})
	a.Record(true)
	armed := buildEveryEvent(t, a)
	rec := a.TakeRecording()
	if rec == nil {
		t.Fatal("no recording")
	}
	var got []string
	for _, ev := range rec.Events {
		got = append(got, eventLine(ev))
	}
	if !slices.Equal(got, everyEventGolden) {
		t.Errorf("recorded %d events, golden %d", len(got), len(everyEventGolden))
		for i := 0; i < max(len(got), len(everyEventGolden)); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(everyEventGolden) {
				w = everyEventGolden[i]
			}
			if g != w {
				t.Errorf("event %d:\n got %s\nwant %s", i, g, w)
			}
		}
	}
	if ok, why := rec.Eligible(); !ok {
		t.Errorf("recording ineligible: %s", why)
	}

	plain := buildEveryEvent(t, NewAsm(emulatingFake{newFake()}))
	if !slices.Equal(plain.Words, armed.Words) || plain.NumInsns != armed.NumInsns {
		t.Errorf("armed build: %d words, %d insns; plain build: %d words, %d insns",
			len(armed.Words), armed.NumInsns, len(plain.Words), plain.NumInsns)
	}
}

// TestRefusedInstructionIsNotRecorded: an instruction an emitter refuses
// leaves no event — SetF and SetD used to record theirs regardless, and Cvt
// recorded a float-to-unsigned conversion before refusing it.
func TestRefusedInstructionIsNotRecorded(t *testing.T) {
	for _, c := range []struct {
		name string
		emit func(a *Asm, g, f Reg)
	}{
		{"SetF", func(a *Asm, g, _ Reg) { a.SetF(g, 1) }},
		{"SetD", func(a *Asm, g, _ Reg) { a.SetD(g, 1) }},
		{"Cvt", func(a *Asm, g, f Reg) { a.Cvt(TypeD, TypeU, g, f) }},
		{"ALU", func(a *Asm, g, f Reg) { a.ALU(OpAdd, TypeI, g, f, g) }},
	} {
		a := NewAsm(newFake())
		a.Record(true)
		args, err := a.Begin("%i%d", Leaf)
		if err != nil {
			t.Fatal(err)
		}
		c.emit(a, args[0], args[1])
		if a.Err() == nil {
			t.Fatalf("%s: the instruction was accepted", c.name)
		}
		if rec := a.TakeRecording(); len(rec.Events) != 0 || a.InsnCount() != 0 {
			t.Errorf("%s: refused, yet %d events recorded and %d instructions counted", c.name, len(rec.Events), a.InsnCount())
		}
	}
}
