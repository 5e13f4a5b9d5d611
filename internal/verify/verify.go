// Package verify statically checks generated machine code before it is
// installed into executable memory.  It is the pre-install half of the
// defense-in-depth story: the encoders are regression-tested at port time
// (paper §3.3), but a client that hand-patches words, a buggy extension,
// or a corrupted cache entry can still produce a word stream the encoders
// never emitted.  The verifier decodes every word through the target's
// instruction table and checks the structural invariants every
// well-formed VCODE function satisfies:
//
//   - every word in the code region is an instruction the simulator
//     will run (it has a row in the target's table);
//   - pc-relative branch targets land inside the function's code;
//   - call targets are inside the function or on a resolved external
//     address the machine vouches for (installed code, trap vectors);
//   - on delayed-branch targets, no control transfer sits in a delay slot;
//   - constant-pool references stay inside the function's pool.
//
// The package depends on nothing else in the repo: targets describe their
// control flow through the small Decoder interface, and the machine layer
// supplies addresses and symbol knowledge through Code and Options.
package verify

import (
	"errors"
	"fmt"
)

// Kind classifies one instruction word's control-flow behaviour.
type Kind int

const (
	// KindOther is a non-control-transfer instruction (ALU, load, store,
	// ...).
	KindOther Kind = iota
	// KindBranch is a pc-relative (or region-absolute) jump or
	// conditional branch whose target must stay inside the function.
	KindBranch
	// KindCall is a call: the target (when statically known) may be
	// inside the function or an external address the machine resolves.
	KindCall
	// KindJumpReg is a register-indirect jump, call or return; its
	// target cannot be checked statically.
	KindJumpReg
	// KindIllegal is a word that is not an instruction of the target:
	// the simulator would reject it with a decode fault.  Classify must
	// return it for exactly those words — it is the one legality check.
	KindIllegal
)

func (k Kind) String() string {
	switch k {
	case KindOther:
		return "other"
	case KindBranch:
		return "branch"
	case KindCall:
		return "call"
	case KindJumpReg:
		return "jump-reg"
	case KindIllegal:
		return "illegal"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// IsControl reports whether the kind transfers control (and therefore owns
// a delay slot on delayed-branch targets).
func (k Kind) IsControl() bool {
	return k == KindBranch || k == KindCall || k == KindJumpReg
}

// Insn is the classification of one instruction word.
type Insn struct {
	Kind      Kind
	Target    uint64 // absolute target address; meaningful iff HasTarget
	HasTarget bool
}

// Decoder is the slice of a backend the verifier needs.  Backends satisfy
// it directly.
type Decoder interface {
	// Classify decodes the control-flow behaviour of w at address pc.
	Classify(w uint32, pc uint64) Insn
	// Disasm renders w, for error text.
	Disasm(w uint32, pc uint64) string
	// BranchDelaySlots returns the architectural delay-slot count (0/1).
	BranchDelaySlots() int
}

// PoolRef is a relocated reference from code into the function's own
// constant pool, expressed as a byte offset from the function base.
type PoolRef struct {
	Sites  []int // referencing word indices (informational)
	Offset int64 // byte offset from the function base
	Size   int   // bytes read at Offset (8 for pool constants)
}

// Code is one relocated function image about to be installed.
type Code struct {
	Name      string
	Words     []uint32
	Base      uint64 // simulated address of Words[0]
	Entry     int    // word index execution starts at
	PoolStart int    // word index where the constant pool begins (== len(Words) if none)
	PoolRefs  []PoolRef
}

// Options carries machine-level knowledge into a verification.
type Options struct {
	// ExternTarget reports whether an out-of-function call target is a
	// valid destination (installed code, a trap vector, the halt
	// address).  A nil ExternTarget rejects every external call.
	ExternTarget func(addr uint64) bool
}

// Sentinel errors; a verification failure wraps exactly one of these.
var (
	ErrIllegalInsn  = errors.New("illegal instruction")
	ErrBranchTarget = errors.New("branch target outside function code")
	ErrCallTarget   = errors.New("call target not a known destination")
	ErrDelaySlot    = errors.New("control transfer in delay slot")
	ErrPoolRef      = errors.New("constant-pool reference outside pool")
	ErrBounds       = errors.New("inconsistent code bounds")
)

// Error is a structured verification failure: which function, which word,
// what the disassembler thought it was, and the invariant it broke.
type Error struct {
	Func string
	Word int    // word index within the function (-1 when not word-specific)
	PC   uint64 // simulated address of the word
	Text string // disassembly of the offending word
	Err  error  // one of the sentinel errors above
}

func (e *Error) Error() string {
	if e.Word < 0 {
		return fmt.Sprintf("verify %s: %v", e.Func, e.Err)
	}
	return fmt.Sprintf("verify %s: word %d at %#x (%s): %v", e.Func, e.Word, e.PC, e.Text, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Verify checks one relocated function image.  It returns nil when every
// invariant holds, or an *Error wrapping a sentinel describing the first
// violation found.
func Verify(d Decoder, c *Code, opt Options) error {
	n := len(c.Words)
	if c.PoolStart < 0 || c.PoolStart > n || c.Entry < 0 || c.Entry > c.PoolStart {
		return &Error{Func: c.Name, Word: -1, Err: fmt.Errorf("%w: entry %d, pool %d, len %d", ErrBounds, c.Entry, c.PoolStart, n)}
	}
	codeLo := c.Base + 4*uint64(c.Entry)
	codeHi := c.Base + 4*uint64(c.PoolStart)
	delay := d.BranchDelaySlots()

	fail := func(i int, pc uint64, w uint32, err error) error {
		return &Error{Func: c.Name, Word: i, PC: pc, Text: d.Disasm(w, pc), Err: err}
	}

	prevControl := false
	for i := c.Entry; i < c.PoolStart; i++ {
		w := c.Words[i]
		pc := c.Base + 4*uint64(i)
		ins := d.Classify(w, pc)
		if ins.Kind == KindIllegal {
			return fail(i, pc, w, ErrIllegalInsn)
		}
		if delay > 0 && prevControl && ins.Kind.IsControl() {
			return fail(i, pc, w, ErrDelaySlot)
		}
		prevControl = ins.Kind.IsControl()

		if ins.HasTarget {
			switch ins.Kind {
			case KindBranch:
				if ins.Target < codeLo || ins.Target >= codeHi || ins.Target%4 != 0 {
					return fail(i, pc, w, fmt.Errorf("%w: %#x not in [%#x,%#x)", ErrBranchTarget, ins.Target, codeLo, codeHi))
				}
			case KindCall:
				in := ins.Target >= codeLo && ins.Target < codeHi && ins.Target%4 == 0
				if !in && (opt.ExternTarget == nil || !opt.ExternTarget(ins.Target)) {
					return fail(i, pc, w, fmt.Errorf("%w: %#x", ErrCallTarget, ins.Target))
				}
			}
		}
	}
	// A function whose last code word owns a delay slot would execute the
	// first pool word; the emitters always pad with a nop.
	if delay > 0 && prevControl && c.PoolStart == n {
		// The delay slot of the last word lies outside the function.
		pc := c.Base + 4*uint64(n-1)
		return fail(n-1, pc, c.Words[n-1], ErrDelaySlot)
	}

	for _, pr := range c.PoolRefs {
		sz := pr.Size
		if sz <= 0 {
			sz = 8
		}
		if pr.Offset < 4*int64(c.PoolStart) || pr.Offset+int64(sz) > 4*int64(n) {
			site := -1
			if len(pr.Sites) > 0 {
				site = pr.Sites[0]
			}
			return &Error{
				Func: c.Name, Word: site, PC: c.Base + 4*uint64(max(site, 0)),
				Text: "pool ref",
				Err:  fmt.Errorf("%w: offset %d not in [%d,%d)", ErrPoolRef, pr.Offset, 4*c.PoolStart, 4*n),
			}
		}
	}
	return nil
}
