package core

import (
	"cmp"
	"fmt"
)

// frame describes one generated function's activation record.  Following
// the paper (§5.2), the register save area is allocated at its worst-case
// fixed size so that save-area offsets and local offsets are known the
// moment they are needed; the space cost is at most a few dozen words of
// stack per live activation.
//
// The frame is the same algorithm on every port, so core lays it down: a
// prologue region of the worst-case size reserved at Begin and filled at
// End (the entry point set past its unused words), and one epilogue that
// every return reaches by a backpatched jump, or, when the finished
// function needs no frame, direct returns.  A port gives two words, its
// stack-pointer adjust and its return (Fixed); the saves and restores are
// its own Store and Load, one word each.
type frame struct {
	// Leaf records the client's v_lambda leaf declaration.
	Leaf bool
	// SavedGPR/SavedFPR list the callee-saved registers actually used,
	// in save order.  Filled in as the allocator hands them out.
	SavedGPR []Reg
	SavedFPR []Reg
	// SaveRA is set when the function may call (non-leaf).
	SaveRA bool
	// LocalBytes is the running size of v_local allocations.
	LocalBytes int64
	// Size is the final frame size in bytes (set at End).
	Size int64
}

// saveLayout fixes the position of every callee-saved register within the
// worst-case register save area (paper §5.2).  Because the area is sized
// for *all* callee-saved registers up front, each register's slot — and
// every local variable's offset above the area — is known the moment it is
// needed, which is what makes in-place generation possible.  The final
// prologue and epilogue, written at v_end, store and load only the slots
// actually used.
//
// Layout from SP after the frame push:
//
//	[0]                       return address
//	[ptr .. ptr*(1+nGPR))     callee-saved integer registers, conv order
//	[align8 .. +8*nFPR)       callee-saved FP registers, 8-byte slots
type saveLayout struct {
	conv     *CallConv
	ptrBytes int
	fpBase   int64
	total    int64
}

// newSaveLayout computes the layout for a convention on a target with the
// given pointer size.
func newSaveLayout(conv *CallConv, ptrBytes int) saveLayout {
	gprEnd := int64(ptrBytes) * int64(1+len(conv.CalleeSaved))
	fpBase := (gprEnd + 7) &^ 7
	total := fpBase + 8*int64(len(conv.CalleeSavedFP))
	return saveLayout{conv: conv, ptrBytes: ptrBytes, fpBase: fpBase, total: total}
}

// gprOff returns the save slot of callee-saved integer register r, or -1
// if r is not callee-saved under the convention.
func (l saveLayout) gprOff(r Reg) int64 {
	for i, x := range l.conv.CalleeSaved {
		if x == r {
			return int64(l.ptrBytes) * int64(1+i)
		}
	}
	return -1
}

// fprOff returns the save slot of callee-saved FP register r, or -1.
func (l saveLayout) fprOff(r Reg) int64 {
	for i, x := range l.conv.CalleeSavedFP {
		if x == r {
			return l.fpBase + 8*int64(i)
		}
	}
	return -1
}

// prologueWords is the reserved prologue region: the adjust, the return
// address and every callee-saved register, one word each.
func (l saveLayout) prologueWords() int {
	return 2 + len(l.conv.CalleeSaved) + len(l.conv.CalleeSavedFP)
}

// saves appends one mem per slot the frame uses — the return address, then
// each saved integer register, then each saved FP register: the port's
// Store for the prologue, its Load for the epilogue.
func (a *Asm) saves(mem func(b *Buf, t Type, r, base Reg, off int64) error) error {
	sp, lay, err := a.conv.SP, &a.saveLayout, error(nil)
	if a.frame.SaveRA {
		err = mem(&a.buf, TypeP, a.conv.RA, sp, 0)
	}
	for _, r := range a.frame.SavedGPR {
		err = cmp.Or(err, mem(&a.buf, TypeP, r, sp, lay.gprOff(r)))
	}
	for _, r := range a.frame.SavedFPR {
		err = cmp.Or(err, mem(&a.buf, TypeD, r, sp, lay.fprOff(r)))
	}
	return err
}

// epilogue appends the restores, the pop and the return, and returns the
// pop's index: on a port with a delay slot the pop rides the return's.
func (a *Asm) epilogue() (pop int, err error) {
	if err := a.saves(a.backend.Load); err != nil {
		return 0, err
	}
	words := [2]uint32{a.fx.FrameAdjust, a.fx.Ret}
	slot := a.fx.slots
	pop = a.buf.Len() + slot
	a.buf.Emit(words[slot])
	a.buf.Emit(words[1-slot])
	return pop, nil
}

// prologue writes the push and the saves into the tail of the reserved
// region, writes the frame size into the push and into the epilogue's pop,
// and returns the entry: the push's index.
func (a *Asm) prologue(pop int) (entry int, err error) {
	at := a.buf.Len()
	a.buf.Emit(a.fx.FrameAdjust)
	if err := a.saves(a.backend.Store); err != nil {
		return 0, err
	}
	w, n := a.buf.Words(), a.buf.Len()-at
	if entry = a.prologueCap - n; entry < 0 {
		return 0, fmt.Errorf("vcode: prologue of %d words overflows its %d", n, a.prologueCap)
	}
	copy(w[entry:], w[at:])
	a.buf.Truncate(at)
	ok := false
	if w[entry], ok = a.fx.adjust.Put(w[entry], -a.frame.Size); ok {
		w[pop], ok = a.fx.adjust.Put(w[pop], a.frame.Size)
	}
	if !ok {
		return 0, fmt.Errorf("%w: frame size %d", ErrFrameRange, a.frame.Size)
	}
	return entry, nil
}
