package exec

import "repro/internal/mem"

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
// probe is about to look: pend retired instructions not yet counted, and
// their base cycles.
func (s *State) flush(pc, pend uint64) {
	s.Pc = pc
	s.Retired += pend
	s.BaseCycles += pend
}

// Machine is a port's simulator as the run loop drives it: the parts of
// execution that are its own.
type Machine interface {
	// Loop, the port's hot loop, calls nothing.  From code[idx] on it
	// executes runs of the plain instructions it has a case for, each a
	// segment that pays the Stall bits after its first in one sum
	// (Instr.Target), and the FFold branches, each folded where a segment
	// ends, until the budget left runs out, the body ends or code[idx] is
	// not one of those: a transfer, a plain instruction it hands to Step,
	// or an access its inline accessor declines.  Only code[idx] pays its
	// bubble by the producer in State.LastLoad: what Loop reaches by
	// falling through pays its Stall bit, and a fold's landing none.  It
	// returns where it stopped and the budget left, charges the bubbles to
	// State.BaseCycles, that of the instruction it stopped at too while
	// budget is left, and leaves the interlock producer in State.LastLoad.
	Loop(code []Instr, idx int, left uint64) (int, uint64)
	// Transfer executes a transfer Loop does not fold (a pc-relative branch
	// through Port.Branch): NoBranch falls through, an index in b is taken,
	// External has left its destination in the State's ExtPC (Instr.Jump,
	// Body.Indirect).
	Transfer(b *Body, in *Instr) int32
	// Step is the port's oracle, one instruction at State.Pc: Run steps
	// what Loop stops at and is not a transfer, and a delay slot Loop does
	// not run.
	Step() error
}

// Port is a port's shape.
type Port struct {
	Slots  int    // delay slots per transfer: 0 or 1
	Nop    uint32 // with slots, the canonical nop (FNop)
	Never  uint8  // the register the load-use interlock never charges, NoReg for none
	Bad    uint16 // the opcode of a word with no row: Step refuses it
	Uncond uint16 // the branch Branch fires no edge probe on (Bad where every branch is conditional)
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
// attached: a transfer by Transfer, anything else by one Step.  A delay
// slot that holds the canonical nop retires without a call, a plain one
// runs in Loop as a body of one, and Step runs any other.
func (p *Port) Run(c Machine, s *State, b *Body, idx int, allow uint64) (uint64, error) {
	// Retired instructions and their base cycles accumulate in the budget
	// left (allow - left have retired) and flush into s where the run
	// stops, at pc, or before a Step; load-use bubbles and instructions
	// that charge extra cycles add to BaseCycles directly, and the
	// interlock producer is s.LastLoad throughout.  The sampler flushes
	// through the current instruction first (flushed counts what is
	// applied) so probes see the counters Step would show.
	code, left := b.Code, allow
	var flushed, pc uint64
	var err error
	sampling, edging := s.Sampling(), s.Edging()
run:
	for {
		tried := false // whether Loop stopped at code[idx], its bubble charged
		if !sampling {
			// Where the edge probe must see every branch, Loop is given
			// the straight run alone, and a branch takes the path below.
			lim := left
			if edging {
				lim = min(left, uint64(code[idx].Run))
			}
			var rest uint64
			idx, rest = c.Loop(code, idx, lim)
			if left, tried = left-(lim-rest), rest > 0; idx == len(code) {
				pc = b.End()
				break
			}
			if left == 0 {
				pc = code[idx].PC
				break
			}
		}
		in := &code[idx]
		if sampling && s.SampleDue() {
			s.flush(in.PC, allow-left+1-flushed)
			flushed = allow - left + 1
			s.Sample(in.PC)
		}
		br := NoBranch
		switch {
		case in.Run == 0:
			if !tried { // else Loop has charged it
				s.BaseCycles += Bubble(in, s.LastLoad, int(p.Never))
			}
			br = c.Transfer(b, in)
		case !tried && once(c, code, idx):
		default:
			// Loop stopped at it and charged its bubble, which Step
			// charges itself.
			s.BaseCycles -= Bubble(in, s.LastLoad, int(p.Never))
			err = s.step(c, in.PC, allow-left, &flushed, sampling)
		}
		if pc, left = in.PC, left-1; err != nil {
			break // Step left what a fault leaves
		}
		// A transfer loads nothing, so no bubble waits at its slot.
		s.LastLoad = int(int8(in.LoadReg))
		idx++
		switch {
		case br == NoBranch:
			pc += 4
			if idx == len(code) {
				break run
			}
		case p.Slots == 0 && br == External:
			pc = s.ExtPC
			break run
		case p.Slots == 0:
			idx = int(br)
		default:
			// Taken transfer: the next word is the delay slot and the
			// transfer lands after it.
			pend := s.ExtPC
			if br != External {
				pend = b.Base + 4*uint64(br)
			}
			if pc += 4; idx == len(code) || left == 0 {
				// Delay slot beyond this body or beyond budget: hand the
				// pending transfer back in architectural form so Step (or
				// the next Run) resumes correctly.
				s.InDelay, s.DelayTarget = true, pend
				break run
			}
			if in = &code[idx]; sampling && s.SampleDue() {
				s.flush(in.PC, allow-left+1-flushed)
				flushed = allow - left + 1
				s.Sample(in.PC)
			}
			// What most slots hold, the nop, retires, and that is all it
			// does; Loop runs a plain slot as a body of one, not looking
			// past it.  Step runs any other, the transfer pending: it
			// lands, or reports a branch in the slot or a fault there.
			if left--; in.Flags&FNop == 0 && (in.Run == 0 || !once(c, code[idx:idx+1], 0)) {
				// The transfer loads nothing: Loop charged no bubble.
				s.InDelay, s.DelayTarget = true, pend
				if err = s.step(c, in.PC, allow-left-1, &flushed, sampling); err != nil {
					pc = s.Pc
					break run
				}
			}
			s.LastLoad = int(int8(in.LoadReg))
			if pc = pend; br == External {
				break run
			}
			idx = int(br)
		}
		if left == 0 {
			pc = code[idx].PC
			break
		}
	}
	s.flush(pc, allow-left-flushed)
	return allow - left, err
}

// once reports whether Loop runs code[idx], a plain instruction, as a body
// of one; else it stopped at it, its bubble charged.
func once(c Machine, code []Instr, idx int) bool {
	i, _ := c.Loop(code, idx, 1)
	return i > idx
}

// step runs the instruction at pc as one Step of the oracle, which counts
// it, charges its bubble and would sample it: s is flushed through the
// done instructions before it, taking back the count of a sample Run took
// of it, which Step does not take again.
func (s *State) step(c Machine, pc, done uint64, flushed *uint64, sampling bool) error {
	s.flush(pc, done-*flushed)
	if *flushed = done + 1; sampling {
		s.sampleLeft++
	}
	return c.Step()
}

// Branch is where in, of a pc-relative branch row, goes: NoBranch, or
// where in.Jump says if taken.  It fires the edge probe, as the oracle
// does, but on Uncond.
func (p *Port) Branch(s *State, in *Instr, taken bool) int32 {
	if in.Op != p.Uncond && s.Edging() { // Edge's own guard: Edge is too big to inline
		s.Edge(in.PC, taken)
	}
	if !taken {
		return NoBranch
	}
	return in.Jump(&s.ExtPC)
}
