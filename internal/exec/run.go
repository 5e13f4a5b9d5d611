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
	Declined    string // the access a Loop's inline accessor declined, as the port's error names it

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
// the parts of execution that are its own.
type Port[P any] struct {
	Name  string // the ISA's name, as its Step prefixes its errors
	Slots int    // delay slots per transfer: 0 or 1
	Nop   uint32 // with slots, the canonical nop (FNop)
	Never uint8  // the register the load-use interlock never charges, NoReg for none
	Bad   uint16 // the opcode of a word with no row: its handler refuses it

	// Loop, the port's hot loop, calls nothing.  From code[idx] on it
	// executes runs of the plain instructions that need no call, each a
	// segment that pays the Stall bits after its first in one sum
	// (Instr.Target), and the FFold branches, each folded where a segment
	// ends, until the budget left runs out, the body ends or code[idx]
	// needs a call: a slow instruction, or an access its inline accessor
	// declines, named in State.Declined.  Only code[idx] pays its bubble
	// by the producer in State.LastLoad: what Loop reaches by falling
	// through pays its Stall bit, and a fold's landing none.  It returns
	// where it stopped and the budget left, charges the bubbles to
	// State.BaseCycles and leaves the interlock producer in State.LastLoad.
	Loop func(c P, code []Instr, idx int, left uint64) (int, uint64)
	// Slow executes a plain instruction Loop stops at but did not decline.
	Slow func(c P, in *Instr) error
	// Cond is whether in, of a pc-relative branch row, is taken, as Loop
	// folds it.  Run fires the edge probe on a branch it resolves, as the
	// oracle does, but on Uncond's (Bad where every branch is conditional).
	Cond   func(c P, in *Instr) bool
	Uncond uint16
	// Handlers holds a transfer's Handler by opcode; a branch has Cond.
	Handlers []Handler[P]
}

// Bubble is 1 where in reads ll, loaded just before, a register not never.
func Bubble(in *Instr, ll, never int) uint64 {
	if ll >= 0 && ll != never && (in.SrcA == uint8(ll) || in.SrcB == uint8(ll)) {
		return 1
	}
	return 0
}

// Run executes b's code from index idx, on c with state s, until allow
// instructions have retired, control leaves the body, or an instruction
// faults; it returns the number retired.  Preconditions (core.Machine
// keeps them): allow > 0, no pending delay slot.  On return s — pc,
// counters, interlock producer, and a taken transfer whose slot lies
// beyond the body or the budget, handed back as InDelay and DelayTarget —
// is exactly what the port's Step would have left.
//
// A loop trip is one call of the port's Loop; what it stops at takes the
// path below, alone, and so does every instruction while a sampler is
// attached.  A delay slot that holds the canonical nop retires without a
// call.
func (p *Port[P]) Run(c P, s *State, b *Body, idx int, allow uint64) (uint64, error) {
	code := b.Code
	// Retired instructions and base cycles accumulate in locals — the
	// budget left (allow - left have retired), plus stall for load-use
	// bubbles — and flush into s at every exit; instructions that charge
	// extra cycles add to BaseCycles directly.  The sampler flushes through
	// the current instruction first (flushed counts what is applied) so
	// probes see the counters Step would show.
	var stall, flushed uint64
	left := allow
	ll, never := s.LastLoad, int(p.Never)
	sampling, edging := s.Sampling(), s.Edging()
	for left > 0 {
		tried := false // whether Loop stopped at code[idx] for its call
		if !sampling {
			// Where the edge probe must see every branch, Loop is given
			// the straight run alone, and a branch takes the path below.
			lim := left
			if edging {
				lim = min(left, uint64(code[idx].Run))
			}
			var rest uint64
			s.LastLoad = ll
			idx, rest = p.Loop(c, code, idx, lim)
			ll, left, tried = s.LastLoad, left-(lim-rest), rest > 0
			if idx == len(code) {
				s.flush(b.End(), allow-left-flushed, stall, ll)
				return allow - left, nil
			}
			if left == 0 {
				break
			}
		}
		in := &code[idx]
		if sampling && s.SampleDue() {
			s.flush(in.PC, allow-left+1-flushed, stall, ll)
			flushed, stall = allow-left+1, 0
			s.Sample(in.PC)
		}
		stall += Bubble(in, ll, never)
		// A transfer's handler is called here, and not through a helper,
		// which would not inline and so cost a second call.
		br, err := NoBranch, error(nil)
		if in.Run != 0 {
			err = p.plain(c, s, code, idx, tried)
		} else if h := p.Handlers[in.Op]; h != nil {
			br, err = h(c, b, in)
		} else if p.branch(c, s, in) {
			br = in.Jump(&s.ExtPC)
		}
		left--
		if err != nil {
			// code[idx] faulted: it retires and has paid its bubble, but
			// does not become the interlock producer.
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
		if p.Slots == 0 {
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
			s.LastLoad = -1 // Loop runs the slot, unless it stops at it
			if i, _ := p.Loop(c, code, dIdx, 1); i == dIdx {
				derr = p.plain(c, s, code, dIdx, true)
			}
		case p.Handlers[din.Op] != nil:
			dbr, derr = p.Handlers[din.Op](c, b, din)
		case p.branch(c, s, din):
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

// branch resolves in, of a pc-relative branch row, by Cond, and fires the
// edge probe.
func (p *Port[P]) branch(c P, s *State, in *Instr) bool {
	taken := p.Cond(c, in)
	if in.Op != p.Uncond && s.Edging() { // Edge's own guard: Edge is too big to inline
		s.Edge(in.PC, taken)
	}
	return taken
}

// plain executes code[idx], a plain instruction, alone, its bubble paid:
// in Loop (unless Loop tried it), in Slow, or, its access declined, in
// Loop again once mem.Memory.Admit has admitted it.
func (p *Port[P]) plain(c P, s *State, code []Instr, idx int, tried bool) error {
	if s.LastLoad = -1; !tried {
		if i, _ := p.Loop(c, code, idx, 1); i > idx {
			return nil
		}
	}
	what := s.Declined
	if what == "" {
		return p.Slow(c, &code[idx])
	}
	s.Declined = ""
	if err := s.Mem.Admit(func() { p.Loop(c, code, idx, 1) }); err != nil {
		return fmt.Errorf("%s: %s at pc %#x: %w", p.Name, what, code[idx].PC, err)
	}
	return nil
}
