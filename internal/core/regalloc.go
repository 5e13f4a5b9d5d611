package core

// regAlloc is the VCODE register allocator (paper §3.2).  The client
// declares a class with each request; candidates are considered in the
// priority order declared by the calling convention.  The allocator is
// intentionally limited in scope: once the machine's registers are
// exhausted it returns ErrRegExhausted and the client keeps values on the
// stack.  Within that scope it works hard: unused argument registers are
// allocatable, leaf procedures satisfy persistent requests from
// caller-saved registers (which survive, as a leaf makes no calls), and
// caller-saved registers stand in for callee-saved ones and vice versa.
type regAlloc struct {
	conv  *CallConv
	taken [2 * fprBase]bool
	leaf  bool
}

// reserve marks r in use without classifying it (argument registers,
// hard-coded names).
func (ra *regAlloc) reserve(r Reg) {
	if r.Valid() {
		ra.taken[r] = true
	}
}

func (ra *regAlloc) free(r Reg) {
	if r.Valid() {
		ra.taken[r] = false
	}
}

func (ra *regAlloc) firstFree(cands []Reg) Reg {
	for _, r := range cands {
		if !ra.taken[r] {
			return r
		}
	}
	return NoReg
}

// get allocates a register of the requested class from the requested bank.
// needsSave reports whether the granted register is callee-saved and must
// therefore appear in the frame's save list.
func (ra *regAlloc) get(class RegClass, fp bool) (r Reg, needsSave bool) {
	caller, callee := ra.conv.CallerSaved, ra.conv.CalleeSaved
	if fp {
		caller, callee = ra.conv.CallerSavedFP, ra.conv.CalleeSavedFP
	}
	var order [2][]Reg
	switch {
	case class == Temp:
		// Prefer caller-saved; fall back to callee-saved (which then
		// must be preserved for our own caller).
		order = [2][]Reg{caller, callee}
	case class == Var && ra.leaf:
		// In a leaf, caller-saved registers survive for free; prefer
		// them to avoid save/restore traffic.
		order = [2][]Reg{caller, callee}
	default:
		order = [2][]Reg{callee, nil}
	}
	for _, cands := range order {
		if r := ra.firstFree(cands); r != NoReg {
			ra.taken[r] = true
			return r, containsReg(callee, r)
		}
	}
	return NoReg, false
}
