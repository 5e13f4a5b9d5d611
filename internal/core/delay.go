package core

// This file implements VCODE's portable instruction-scheduling interface
// (paper §5.3): clients that are willing to think about delay slots can
// schedule loads and branch delay slots without any per-instruction cost
// on machines that do not have them.

// ScheduleDelay emits a branch together with an instruction for its delay
// slot (v_schedule_delay).  branch must emit exactly one VCODE branch or
// jump; slot should emit one simple VCODE instruction.  If the machine has
// delay slots and the instruction fits (a single word with no relocations),
// it replaces the padding nop in the slot; otherwise it is placed before
// the branch, preserving semantics on machines without slots.
func (a *Asm) ScheduleDelay(branch, slot func()) {
	if !a.ready() {
		return
	}
	// The code motion below invalidates recorded branch sites and event
	// order; recordings of delay-scheduled functions do not replay.
	a.recordUnsupported("delay-slot scheduling")
	start := a.buf.Len()
	branch()
	mid := a.buf.Len()
	slot()
	end := a.buf.Len()
	if a.err != nil {
		return
	}
	slotWords := end - mid
	if a.backend.BranchDelaySlots() == 1 && slotWords == 1 &&
		mid-start >= 2 && a.backend.IsNop(a.buf.At(mid-1)) &&
		!a.sitesIn(mid, end) && !a.boundIn(mid, end) {
		// Drop the slot word into the branch's padding nop.
		a.buf.Set(mid-1, a.buf.At(mid))
		a.buf.Truncate(mid)
		return
	}
	// Place the slot instruction(s) before the branch: rotate
	// [start,mid) after [mid,end) and remap every recorded site in one
	// pass (branch part moves right by slotWords, slot part moves left
	// by the branch length).  A label at start names the pair, not the
	// branch: it stays, so that a jump to it still runs the slot.
	rotate(a.buf.Words()[start:end], mid-start)
	a.remapSites(start, func(s int) int {
		switch {
		case s >= start && s < mid:
			return s + slotWords
		case s >= mid && s < end:
			return s - (mid - start)
		default:
			return s
		}
	})
}

// RawLoad emits a load followed by enough nops to make its result safely
// available (v_raw_load).  uses is the number of VCODE instructions the
// client will emit before using the result; if that is less than the
// machine's load delay, the difference is padded.
func (a *Asm) RawLoad(load func(), uses int) {
	if !a.ready() {
		return
	}
	a.recordUnsupported("raw-load scheduling")
	load()
	for pad := a.backend.LoadDelay() - uses; pad > 0; pad-- {
		a.backend.Nop(a.buf)
	}
}

// rotate left-rotates w by k positions (triple-reverse).
func rotate(w []uint32, k int) {
	reverse(w[:k])
	reverse(w[k:])
	reverse(w)
}

func reverse(w []uint32) {
	for i, j := 0, len(w)-1; i < j; i, j = i+1, j-1 {
		w[i], w[j] = w[j], w[i]
	}
}

// sitesIn reports whether any fixup/reloc/pool/argload site lies in
// [lo, hi).
func (a *Asm) sitesIn(lo, hi int) bool {
	in := func(s int) bool { return s >= lo && s < hi }
	for _, f := range a.fixups {
		if in(f.site) {
			return true
		}
	}
	for _, r := range a.relocs {
		for _, s := range r.Sites {
			if in(s) {
				return true
			}
		}
	}
	for _, p := range a.poolRefs {
		for _, s := range p.sites {
			if in(s) {
				return true
			}
		}
	}
	for _, p := range a.pending {
		if in(p.site) {
			return true
		}
	}
	return false
}

func (a *Asm) boundIn(lo, hi int) bool {
	for _, t := range a.labels {
		if t >= lo && t < hi {
			return true
		}
	}
	return false
}

// remapSites applies adj to every recorded instruction index, and to every
// bound label except those at keep.
func (a *Asm) remapSites(keep int, adj func(int) int) {
	for i := range a.fixups {
		a.fixups[i].site = adj(a.fixups[i].site)
	}
	for i := range a.relocs {
		for j := range a.relocs[i].Sites {
			a.relocs[i].Sites[j] = adj(a.relocs[i].Sites[j])
		}
	}
	for i := range a.poolRefs {
		for j := range a.poolRefs[i].sites {
			a.poolRefs[i].sites[j] = adj(a.poolRefs[i].sites[j])
		}
	}
	for i := range a.pending {
		a.pending[i].site = adj(a.pending[i].site)
	}
	for i := range a.retSites {
		a.retSites[i].jmpIdx = adj(a.retSites[i].jmpIdx)
		if a.retSites[i].moveIdx >= 0 {
			a.retSites[i].moveIdx = adj(a.retSites[i].moveIdx)
		}
	}
	for i := range a.labels {
		if a.labels[i] >= 0 && a.labels[i] != keep {
			a.labels[i] = adj(a.labels[i])
		}
	}
}
