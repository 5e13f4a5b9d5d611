package core

import "fmt"

// This file implements portable-emission recording, the substrate for the
// profile-guided superblock tier (internal/superblock).  VCODE generates
// code in place and keeps no intermediate representation, so a client that
// wants to re-optimize a hot function later has nothing to re-walk — the
// paper's answer (§5.4, §6.2) is that optimizers are client layers above
// the portable interface.  Recording captures exactly that interface: with
// it enabled, every portable emission (and every register-allocation
// decision) is appended to a Recording as it happens, at the portable
// level, before backend expansion.  Replaying the recording through a
// fresh Asm on the same backend reproduces the function bit-for-bit —
// same registers, same frame, same code — which is what lets a superblock
// rewriter re-emit a *different* arrangement of the same instructions and
// still guarantee identical architectural state.
//
// The cost discipline matches internal/telemetry: recording is off by
// default, and with it off each emission pays a single nil pointer check.

// RecKind identifies one recorded portable event.
type RecKind uint8

const (
	// Instruction events (replayable through the public emitters).
	RecALU RecKind = iota
	RecALUI
	RecUnary
	RecSetI
	RecSetF
	RecSetD
	RecLd  // register-offset load: Rd, Rs1=base, Rs2=roff
	RecLdI // immediate-offset load: Rd, Rs1=base, Imm=off
	RecSt  // register-offset store: Rd=value, Rs1=base, Rs2=roff
	RecStI // immediate-offset store: Rd=value, Rs1=base, Imm=off
	RecBr  // Rs1, Rs2, Label; Site is the branch word index
	RecBrI // Rs1, Imm, Label; Site is the branch word index
	RecJmp
	RecBind
	RecRet
	RecRetVoid
	RecNop
	RecCvt // T=from, T2=to
	RecExt // Name, T, Rd, Srcs

	// Register-allocation events (replayed by BeginFromRecording; they
	// emit no code, so their position in the stream does not matter —
	// only their order relative to each other).
	RecGetReg  // Rd=granted register, Class, FP
	RecPutReg  // Rd=freed register
	RecLocal   // T=slot type, Imm=granted SP offset
	RecHardReg // Rd=reserved hard register, Class=Var when callee-saved
)

// IsAlloc reports whether k is a register-allocation event rather than an
// instruction event.
func (k RecKind) IsAlloc() bool { return k >= RecGetReg }

// RecEvent is one recorded portable emission.  Fields are a union across
// kinds; see the RecKind constants for which fields each kind uses.
type RecEvent struct {
	Kind  RecKind
	Op    Op
	T     Type
	T2    Type // Cvt destination type
	Rd    Reg
	Rs1   Reg
	Rs2   Reg
	Imm   int64
	F     float64 // SetF / SetD constant
	Label Label
	// Site is the code-buffer word index of an emitted branch or jump
	// instruction.  Installed at address A, the instruction executes at
	// PC = A + 4*Site, which is the key an edge profiler reports
	// taken/not-taken counts under — the bridge from bias data back to
	// the recorded branch.
	Site  int
	Class RegClass
	FP    bool
	Name  string // Ext instruction name
	Srcs  []Reg  // Ext source registers
}

// Recording is the portable-level trace of one Begin..End build.
type Recording struct {
	Name   string
	Params []Type
	Leaf   bool
	// Args are the parameter registers Begin returned.
	Args   []Reg
	Events []RecEvent

	unsupported string
}

// Eligible reports whether the recording replays exactly: functions that
// made calls, took function-pointer addresses, or used delay-slot
// scheduling are beyond the replay guarantee and report the reason.
func (r *Recording) Eligible() (bool, string) {
	if r.unsupported != "" {
		return false, r.unsupported
	}
	return true, ""
}

// UsedRegs returns the set of registers mentioned anywhere in the
// recording (allocation or instruction events).  A rewriter that needs
// scratch state of its own (side-exit counters) must stay out of this set.
func (r *Recording) UsedRegs() map[Reg]bool {
	used := make(map[Reg]bool)
	note := func(regs ...Reg) {
		for _, reg := range regs {
			if reg.Valid() {
				used[reg] = true
			}
		}
	}
	note(r.Args...)
	for _, ev := range r.Events {
		note(ev.Rd, ev.Rs1, ev.Rs2)
		note(ev.Srcs...)
	}
	return used
}

// Record arms (or disarms) recording for subsequent Begin..End builds on
// this assembler.  The recording for the build in progress — or the last
// finished build — is retrieved with TakeRecording.
func (a *Asm) Record(on bool) { a.recOn = on }

// TakeRecording detaches and returns the recording of the most recent
// build (nil when recording was off), so a pooled assembler reused across
// functions never leaks one function's recording into the next.
func (a *Asm) TakeRecording() *Recording {
	r := a.rec
	a.rec = nil
	a.gate()
	return r
}

// record appends an instruction event; no-op unless recording is armed
// and we are not inside an internal synthesis expansion (Cvt's
// unsigned-to-float sequence, an Ext's portable definition), which replay
// re-expands from its portable event.
func (a *Asm) record(ev RecEvent) {
	if a.rec == nil || a.recPause > 0 || a.state != stBuilding {
		return
	}
	a.rec.Events = append(a.rec.Events, ev)
}

// recordUnsupported marks the current recording as beyond the replay
// guarantee (calls, address-taking, delay-slot scheduling).
func (a *Asm) recordUnsupported(why string) {
	if a.rec == nil || a.state != stBuilding {
		return
	}
	if a.rec.unsupported == "" {
		a.rec.unsupported = why
	}
}

// pauseRecord suspends event capture during an internal synthesis whose
// portable-level event has already been recorded; the returned func
// resumes capture.
func (a *Asm) pauseRecord() func() {
	a.recPause++
	return func() { a.recPause-- }
}

// BeginFromRecording starts a build with rec's signature and replays its
// register-allocation history, so every physical register and stack slot
// the recorded build used is granted identically here — recorded
// instruction events can then be re-emitted (in any order a rewriter
// chooses) with their register operands untouched.  It fails if the
// allocator diverges, which can only happen when rec came from a
// different backend or calling convention.
func (a *Asm) BeginFromRecording(rec *Recording) ([]Reg, error) {
	if ok, why := rec.Eligible(); !ok {
		return nil, fmt.Errorf("vcode: recording of %s does not replay: %s", rec.Name, why)
	}
	args, err := a.BeginTypes(rec.Params, rec.Leaf)
	if err != nil {
		return nil, err
	}
	if len(args) != len(rec.Args) {
		return nil, fmt.Errorf("vcode: replay of %s: %d args, recorded %d", rec.Name, len(args), len(rec.Args))
	}
	for i, r := range args {
		if r != rec.Args[i] {
			return nil, fmt.Errorf("vcode: replay of %s: arg %d in %v, recorded %v", rec.Name, i, r, rec.Args[i])
		}
	}
	resume := a.pauseRecord()
	defer resume()
	for _, ev := range rec.Events {
		switch ev.Kind {
		case RecGetReg:
			r, err := a.getReg(ev.Class, ev.FP)
			if err != nil {
				return nil, fmt.Errorf("vcode: replay of %s: %w", rec.Name, err)
			}
			if r != ev.Rd {
				return nil, fmt.Errorf("vcode: replay of %s: allocator granted %v, recorded %v", rec.Name, r, ev.Rd)
			}
		case RecPutReg:
			a.PutReg(ev.Rd)
		case RecLocal:
			if off := a.Local(ev.T); off != ev.Imm {
				return nil, fmt.Errorf("vcode: replay of %s: local at %d, recorded %d", rec.Name, off, ev.Imm)
			}
		case RecHardReg:
			a.ra.reserve(ev.Rd)
			if ev.Class == Var {
				a.noteSaved(ev.Rd)
			}
		}
	}
	return args, nil
}

// Replay re-emits one recorded instruction event through the public
// emitters, mapping the recorded label through mapLabel (labels are build
// scoped; a rewriter binds its own).  Allocation events are skipped — they
// were replayed by BeginFromRecording.
func (a *Asm) Replay(ev RecEvent, mapLabel func(Label) Label) {
	switch ev.Kind {
	case RecALU:
		a.ALU(ev.Op, ev.T, ev.Rd, ev.Rs1, ev.Rs2)
	case RecALUI:
		a.ALUI(ev.Op, ev.T, ev.Rd, ev.Rs1, ev.Imm)
	case RecUnary:
		a.Unary(ev.Op, ev.T, ev.Rd, ev.Rs1)
	case RecSetI:
		a.SetI(ev.T, ev.Rd, ev.Imm)
	case RecSetF:
		a.SetF(ev.Rd, float32(ev.F))
	case RecSetD:
		a.SetD(ev.Rd, ev.F)
	case RecLd:
		a.Ld(ev.T, ev.Rd, ev.Rs1, ev.Rs2)
	case RecLdI:
		a.LdI(ev.T, ev.Rd, ev.Rs1, ev.Imm)
	case RecSt:
		a.St(ev.T, ev.Rd, ev.Rs1, ev.Rs2)
	case RecStI:
		a.StI(ev.T, ev.Rd, ev.Rs1, ev.Imm)
	case RecBr:
		a.Br(ev.Op, ev.T, ev.Rs1, ev.Rs2, mapLabel(ev.Label))
	case RecBrI:
		a.BrI(ev.Op, ev.T, ev.Rs1, ev.Imm, mapLabel(ev.Label))
	case RecJmp:
		a.Jmp(mapLabel(ev.Label))
	case RecBind:
		a.Bind(mapLabel(ev.Label))
	case RecRet:
		a.Ret(ev.T, ev.Rs1)
	case RecRetVoid:
		a.RetVoid()
	case RecNop:
		a.Nop()
	case RecCvt:
		a.Cvt(ev.T, ev.T2, ev.Rd, ev.Rs1)
	case RecExt:
		a.Ext(ev.Name, ev.T, ev.Rd, ev.Srcs...)
	}
}
