package exec

import (
	"fmt"

	"repro/internal/mem"
)

// State is the simulator state every port keeps alike, embedded by each
// port's CPU: its Step and the run loop read and write the same fields.
type State struct {
	Pc          uint64 // the next instruction's address (PC reads it)
	InDelay     bool   // a taken transfer waits on its delay slot ...
	DelayTarget uint64 // ... and lands here after it
	ExtPC       uint64 // where a handler's transfer out of the body goes
	Mem         *mem.Memory
	BaseCycles  uint64 // cycles, memory-system stalls apart
	Retired     uint64 // instructions retired
	LastLoad    int    // the register the previous instruction loaded, or -1

	Probes // the PC sampler and the branch edge probe
}

// NewState returns the state of a simulator bound to m.
func NewState(m *mem.Memory) State { return State{Mem: m, LastLoad: -1} }

// PC returns the program counter.
func (s *State) PC() uint64 { return s.Pc }

// SetPC jumps the simulator, clearing any pending delay slot and the
// load-use interlock: what a call (or a trap's return) costs must not
// depend on the last instruction of whatever ran before it.
func (s *State) SetPC(pc uint64) { s.Pc, s.InDelay, s.LastLoad = pc, false, -1 }

// Cycles returns executed cycles including memory-system stalls.
func (s *State) Cycles() uint64 { return s.BaseCycles + s.Mem.PenaltyCycles() }

// Insns returns retired instructions.
func (s *State) Insns() uint64 { return s.Retired }

// ResetStats zeroes the cycle and instruction counters and the memory
// penalty accumulator.
func (s *State) ResetStats() {
	s.BaseCycles, s.Retired = 0, 0
	s.Mem.ResetStats()
}

// PendingDelay reports whether a taken transfer waits on its delay slot:
// the run loop cannot resume inside the pair, so the caller runs Step
// until the pair completes.
func (s *State) PendingDelay() bool { return s.InDelay }

// flush brings s up to date at pc, where the run loop is leaving or a
// probe is about to look: pend retired instructions not yet counted, their
// base cycles plus stall interlock bubbles, and the interlock producer.
func (s *State) flush(pc, pend, stall uint64, ll int) {
	s.Pc = pc
	s.Retired += pend
	s.BaseCycles += pend + stall
	s.LastLoad = ll
}

// Handler executes one transfer, or refuses one undecodable word.  It
// returns NoBranch to fall through, an in-body index for a taken transfer
// that stays in the body, or External after depositing the destination in
// the State's ExtPC (Instr.Jump, Body.Indirect).
type Handler[P any] func(c P, b *Body, in *Instr) (int32, error)

// Port is what a port's CPU, of type P, gives the run loop: its shape and
// the three parts of execution that are its own.
type Port[P any] struct {
	Name  string // the ISA's name, as its Step prefixes its errors
	Slots int    // delay slots per transfer: 0 or 1
	Nop   uint32 // with slots, the canonical nop (FNop)
	Never uint8  // the register the load-use interlock never charges, NoReg for none
	Bad   uint16 // the opcode of a word with no row: its handler refuses it

	// Plain executes code, which holds only plain instructions, in order.
	// It returns how many completed, the sum of the Stall bits of those it
	// started, and the fault of the one that did not complete, if any.
	Plain func(c P, code []Instr) (done int, bubbles uint64, err error)
	// Branch resolves in, an instruction of a pc-relative branch row
	// (KindBranch), and reports whether it is taken; a conditional one
	// fires the edge probe on every resolution, as the oracle does.
	Branch func(c P, in *Instr) bool
	// Handlers holds a transfer's Handler by opcode.  A pc-relative
	// branch has none: the loop resolves it with Branch.
	Handlers []Handler[P]
}

// Run executes b's code from index idx, on c with state s, until allow
// instructions have retired, control leaves the body, or an instruction
// faults; it returns the number retired.  Preconditions (core.Machine
// keeps them): allow > 0, no pending delay slot.  On return s — pc,
// counters, interlock producer, and a taken transfer whose slot lies
// beyond the body or the budget, handed back as InDelay and DelayTarget —
// is exactly what the port's Step would have left.
//
// A loop trip executes a straight-line run in one Plain call, a branch
// FFold marks in one Branch call, and any other transfer in one call of
// its handler; a delay slot that holds the canonical nop retires without
// a call.
func (p *Port[P]) Run(c P, s *State, b *Body, idx int, allow uint64) (uint64, error) {
	code := b.Code
	// Retired instructions and base cycles accumulate in locals — the
	// budget left (allow - left have retired), plus stall for load-use
	// bubbles — and flush into s at every exit: two read-modify-writes per
	// instruction are a measurable fraction of threaded dispatch cost, and
	// one budget counter instead of a count and its limit keeps a value
	// fewer live across Plain and Branch.  Instructions that charge extra
	// cycles still add to BaseCycles directly — addition commutes, so the
	// totals stay oracle-exact.  The sampler branch flushes through the
	// current instruction first (flushed counts the retired instructions
	// already applied) so probes observe the counters Step would show.
	// ll, the interlock producer, charges a reader only when it is a
	// register (ll >= 0) and not the one the port's interlock never
	// charges.
	var stall, flushed uint64
	left := allow
	ll, never, slots := s.LastLoad, int(p.Never), uint64(p.Slots)
	sampling := s.Sampling()
	for left > 0 {
		in := &code[idx]
		if in.Flags&FFold != 0 && left > slots && !sampling {
			// An in-body branch with a nop in any slot — usually the one
			// that closed the run the previous trip executed — and the
			// budget admits both: resolved here, with no handler call, and
			// the trip goes on at its successor.  It pays its bubble as on
			// the path below; taken, it retires its slot too, not taken,
			// the slot is its successor (MarkRuns keeps FFold only where
			// the slot is in the body; with no slot, not taken may fall
			// off the end).  Neither loads, so no bubble waits at the
			// successor.
			if ll >= 0 && ll != never && (in.SrcA == uint8(ll) || in.SrcB == uint8(ll)) {
				stall++
			}
			ll = -1
			if left--; p.Branch(c, in) {
				left -= slots
				idx = int(in.Target)
			} else if idx++; idx == len(code) {
				s.flush(in.PC+4, allow-left-flushed, stall, ll)
				return allow - left, nil
			}
			if left == 0 {
				break
			}
			in = &code[idx]
		}
		if run := min(uint64(in.Run), left); run > 1 && !sampling {
			// A straight-line run, nobody sampling: Plain executes as much
			// of it as the budget admits.  (One instruction alone costs
			// less on the path below, which need not ask how far Plain
			// got.)  Its first instruction may have been reached by a
			// transfer, so ll decides its bubble; each of the others
			// follows its array predecessor and carries its bubble as a
			// bit, which Plain sums (the first one's bit comes off again).
			if ll >= 0 && ll != never && (in.SrcA == uint8(ll) || in.SrcB == uint8(ll)) {
				stall++
			}
			done, bubbles, err := p.Plain(c, code[idx:idx+int(run)])
			stall += bubbles - uint64(in.Stall)
			if done > 0 {
				ll = int(int8(code[idx+done-1].LoadReg))
			}
			idx += done
			left -= uint64(done)
			if err != nil {
				// code[idx] faulted: it retires and has paid its bubble,
				// but does not become the interlock producer.
				left--
				s.flush(code[idx].PC, allow-left-flushed, stall, ll)
				return allow - left, err
			}
			if idx == len(code) {
				s.flush(b.End(), allow-left-flushed, stall, ll)
				return allow - left, nil
			}
			continue
		}
		// One combined predicate guards both rare per-instruction
		// concerns (PC sampling, a pending load-use interlock), so the
		// common iteration pays a single not-taken branch.
		if sampling || ll >= 0 {
			if sampling && s.SampleDue() {
				s.flush(in.PC, allow-left+1-flushed, stall, ll)
				flushed, stall = allow-left+1, 0
				s.Sample(in.PC)
			}
			if ll >= 0 && ll != never && (in.SrcA == uint8(ll) || in.SrcB == uint8(ll)) {
				stall++
			}
		}
		// A transfer's handler is called here, and not through a helper,
		// which would not inline and so cost a second call.
		br, err := NoBranch, error(nil)
		if in.Run != 0 {
			_, _, err = p.Plain(c, code[idx:idx+1])
		} else if h := p.Handlers[in.Op]; h != nil {
			br, err = h(c, b, in)
		} else if p.Branch(c, in) {
			br = in.Jump(&s.ExtPC)
		}
		left--
		if err != nil {
			s.flush(in.PC, allow-left-flushed, stall, ll)
			return allow - left, err
		}
		ll = int(int8(in.LoadReg))
		if br == NoBranch {
			idx++
			if idx == len(code) {
				s.flush(in.PC+4, allow-left-flushed, stall, ll)
				return allow - left, nil
			}
			continue
		}
		if slots == 0 {
			if br == External {
				s.flush(s.ExtPC, allow-left-flushed, stall, ll)
				return allow - left, nil
			}
			idx = int(br)
			continue
		}

		// Taken transfer: the next word is the delay slot and the
		// transfer lands after it.
		var pendAddr uint64
		if br == External {
			pendAddr = s.ExtPC
		} else {
			pendAddr = b.Base + 4*uint64(br)
		}
		dIdx := idx + 1
		if dIdx == len(code) || left == 0 {
			// Delay slot beyond this body or beyond budget: hand the
			// pending transfer back in architectural form so Step (or the
			// next Run) resumes correctly.
			s.InDelay, s.DelayTarget = true, pendAddr
			s.flush(in.PC+4, allow-left-flushed, stall, ll)
			return allow - left, nil
		}
		// A transfer loads nothing, so no bubble waits at its slot.
		din := &code[dIdx]
		if sampling && s.SampleDue() {
			s.flush(din.PC, allow-left+1-flushed, stall, ll)
			flushed, stall = allow-left+1, 0
			s.Sample(din.PC)
		}
		dbr, derr := NoBranch, error(nil)
		switch {
		case din.Flags&FNop != 0:
			// What most slots hold: it retires, and that is all it does.
		case din.Run != 0:
			_, _, derr = p.Plain(c, code[dIdx:dIdx+1])
		case p.Handlers[din.Op] != nil:
			dbr, derr = p.Handlers[din.Op](c, b, din)
		case p.Branch(c, din):
			dbr = din.Jump(&s.ExtPC)
		}
		left--
		if derr != nil {
			s.InDelay, s.DelayTarget = true, pendAddr
			s.flush(din.PC, allow-left-flushed, stall, ll)
			return allow - left, derr
		}
		ll = int(int8(din.LoadReg))
		if dbr != NoBranch {
			// Branch in a delay slot: Step resolves the pending transfer
			// first, then reports the bug at the landing pc.
			s.flush(pendAddr, allow-left-flushed, stall, ll)
			return allow - left, fmt.Errorf("%s: branch in delay slot at %#x", p.Name, s.Pc)
		}
		if br == External {
			s.flush(pendAddr, allow-left-flushed, stall, ll)
			return allow - left, nil
		}
		idx = int(br)
	}
	s.flush(code[idx].PC, allow-left-flushed, stall, ll)
	return allow - left, nil
}
