package core

import "repro/internal/exec"

// Fixed is a port's fixed-shape words, declared once as data beside its
// instruction table and handed to NewTemplates.  No operand changes their
// shape, so the core emits them itself: it writes a register through the
// field its syntax letter declares and pads a transfer with
// BranchDelaySlots nops.  End and the loader patch them through the
// table's fields, worked out once per port (fixed).  Every target and
// number in the declaration is zero.
type Fixed struct {
	Nop       uint32 // the canonical no-op
	Jump      uint32 // unconditional jump to a label
	CallLabel uint32 // call to a label of the function
	// Branch is the syntax letter of a conditional branch's target: End
	// patches every site Backend.Branch and BranchImm return through it.
	Branch byte
	// Call is the call to an address the loader resolves: one word whose
	// row has a target field, or Addr's pair with its register written in
	// followed by the words that call through that register.
	Call []uint32
	// Addr materializes an absolute address, high word then low word;
	// the high word's number counts in units of 1<<AddrShift.
	Addr      [2]Word
	AddrShift uint8
	JumpReg   Word // jump through a register
	CallReg   Word // call through a register
	// FrameAdjust adds a displacement to the stack pointer: End writes
	// -size into the prologue's and +size into the epilogue's (frame.go).
	// Ret is the plain return, also what jump-to-epilogue sites become
	// when the finished function needs no frame (paper §5.2).
	FrameAdjust, Ret uint32
}

// Word is a fixed word and the syntax letters of the fields a register is
// written into.
type Word struct {
	W   uint32
	Reg string
}

// fixed is a port's Fixed as the core uses it, worked out once per port by
// NewTemplates, which Templates carries to NewAsm and NewMachine: the
// register letters resolved to their fields; the fields End and the
// loader patch through: a branch's, a jump's, a label call's and a
// one-word call's target, the frame adjust's and the address pair's
// numbers; and the largest number the pair's low one holds.
type fixed struct {
	*Fixed
	slots                             int
	jumpReg, callReg, hi, lo          regWord
	branchTo, jumpTo, labelTo, callTo *exec.Field
	adjust, hiNum, loNum              *exec.Field
	loMax                             int64
}

func (x *fixed) derive(b Backend, fx *Fixed) {
	isa := b.ISA()
	x.Fixed, x.slots = fx, b.BranchDelaySlots()
	word := func(w Word) regWord {
		r := regWord{w: w.W}
		for _, c := range []byte(w.Reg) {
			r.f = append(r.f, isa.Field(c))
		}
		return r
	}
	x.jumpReg, x.callReg, x.hi, x.lo = word(x.JumpReg), word(x.CallReg), word(x.Addr[0]), word(x.Addr[1])
	row := isa.Lookup // a declared word its table does not decode panics here
	x.branchTo, x.jumpTo, x.labelTo = isa.Field(x.Branch), row(x.Jump).Tgt, row(x.CallLabel).Tgt
	x.callTo, x.adjust = row(x.Call[0]).Tgt, row(x.FrameAdjust).Num
	// The pair as loadPool emits it: with register zero, SPARC's sethi
	// would read as its nop.
	sr := b.ScratchReg()
	x.hiNum, x.loNum = row(x.hi.with(sr)).Num, row(x.lo.with(sr)).Num
	_, x.loMax = x.loNum.Range()
}

// regWord is a Word with its letters' fields.
type regWord struct {
	w uint32
	f []*exec.Field
}

// with returns the word with r written into each of its register fields.
func (rw *regWord) with(r Reg) uint32 {
	w := rw.w
	for _, f := range rw.f {
		w, _ = f.Put(w, int64(r.Num()))
	}
	return w
}

// link points the relocation sites of code, placed at base, to target; ok
// is false, and nothing written, when a field cannot hold its part.  One
// site is the one-word call, retargeted through its target field.  Two are
// an address pair: the low number takes target's low AddrShift bits, less
// 1<<AddrShift when that is more than its field holds (a signed low half
// borrows from the high), and the high number the rest, in its units.
func (x *fixed) link(code []uint32, sites []int, base, target uint64) (ok bool) {
	if len(sites) == 1 {
		code[sites[0]], ok = x.callTo.PutTarget(code[sites[0]], base+4*uint64(sites[0]), target)
		return ok
	}
	lo := int64(target & (1<<x.AddrShift - 1))
	if lo > x.loMax {
		lo -= 1 << x.AddrShift
	}
	wh, okh := x.hiNum.Put(code[sites[0]], (int64(target)-lo)>>(x.AddrShift-x.hiNum.Scale))
	wl, okl := x.loNum.Put(code[sites[1]], lo)
	if ok = okh && okl; ok {
		code[sites[0]], code[sites[1]] = wh, wl
	}
	return ok
}

// transfer appends the transfer w and its delay slots, returning w's index.
func (a *Asm) transfer(w uint32) int {
	site := a.buf.Len()
	a.buf.Emit(w)
	for i := 0; i < a.fx.slots; i++ {
		a.buf.Emit(a.fx.Nop)
	}
	return site
}

// callSite appends the call to an address the loader resolves, returning
// its relocation sites: the call word, or the address pair.
func (a *Asm) callSite() []int {
	at, n := a.buf.Len(), len(a.fx.Call)
	for _, w := range a.fx.Call[:n-1] {
		a.buf.Emit(w)
	}
	a.transfer(a.fx.Call[n-1])
	return []int{at, at + 1}[:min(n, 2)]
}

// loadAddr appends the address pair into rd, returning its relocation
// sites.
func (a *Asm) loadAddr(rd Reg) []int {
	at := a.buf.Len()
	a.buf.Emit(a.fx.hi.with(rd))
	a.buf.Emit(a.fx.lo.with(rd))
	return []int{at, at + 1}
}
