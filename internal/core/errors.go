package core

import (
	"errors"
	"fmt"
)

// Sentinel errors reported by the assembler.  The first error encountered
// while emitting sticks to the Asm and is returned from End, so straight-
// line client code need not check every instruction (mirroring the paper's
// macro interface, which had no per-instruction error channel at all).
var (
	// ErrRegExhausted is returned by GetReg when the machine's registers
	// are gone; clients are then responsible for keeping variables on
	// the stack (paper §3.2).
	ErrRegExhausted = errors.New("vcode: register allocator exhausted")
	// ErrLeafCall is reported when a function declared Leaf tries to
	// emit a call.
	ErrLeafCall = errors.New("vcode: call emitted in function declared leaf")
	// ErrBadType is reported when an operation is applied to a type it
	// does not support.
	ErrBadType = errors.New("vcode: invalid type for operation")
	// ErrBadReg is reported when an operand register is invalid or of
	// the wrong bank for the instruction.
	ErrBadReg = errors.New("vcode: invalid register operand")
	// ErrUnboundLabel is reported at End when a referenced label was
	// never bound.
	ErrUnboundLabel = errors.New("vcode: unbound label")
	// ErrBadLabel is reported when Bind is given a label NewLabel never
	// handed out, or one that is already bound.
	ErrBadLabel = errors.New("vcode: invalid label")
	// ErrBranchRange is reported when a branch displacement does not fit
	// the target's encoding.
	ErrBranchRange = errors.New("vcode: branch displacement out of range")
	// ErrFrameRange is reported at End when an incoming stack argument's
	// offset from the finished frame does not fit the target's load.
	ErrFrameRange = errors.New("vcode: frame offset out of range")
	// ErrState is reported when the Asm lifecycle is misused (emitting
	// before Begin or after End, ending twice, ...).
	ErrState = errors.New("vcode: assembler used in wrong state")
	// ErrNoHardReg is the "register assertion" failure: the target does
	// not provide the hard-coded register the client demanded (§5.3).
	ErrNoHardReg = errors.New("vcode: hard-coded register not available on this target")
	// ErrDelaySlot is reported when ScheduleDelay is given an
	// instruction that cannot occupy a delay slot.
	ErrDelaySlot = errors.New("vcode: instruction cannot be scheduled into delay slot")
	// ErrUnknownExt is reported when an extension instruction name has
	// no registered definition.
	ErrUnknownExt = errors.New("vcode: unknown extension instruction")
	// ErrFuelExhausted is reported by Call/CallWith when generated code
	// runs past its step budget (CallOpts.Fuel, or the machine-wide
	// MaxSteps backstop).
	ErrFuelExhausted = errors.New("vcode: fuel exhausted")
	// ErrUnloaded is reported when a function that left (its Unit was
	// unloaded) is called, or an unloaded Unit is given a function: a call
	// never puts a program back on the machine.
	ErrUnloaded = errors.New("vcode: program unit is unloaded")
	// ErrOwned is reported when a Unit is asked to take a function that is
	// resident: it belongs to the unit that placed it.
	ErrOwned = errors.New("vcode: function is already installed or owned")
)

// TrapPanicError reports that a runtime-helper trap handler panicked
// during a call.  The sandbox recovers the panic so a faulty helper
// surfaces as an error from Call instead of unwinding the host process.
type TrapPanicError struct {
	Sym   string // the trap's symbol name
	PC    uint64 // the trap vector address
	Value any    // the recovered panic value
}

func (e *TrapPanicError) Error() string {
	return fmt.Sprintf("vcode: trap handler %q at %#x panicked: %v", e.Sym, e.PC, e.Value)
}

// PanicError reports a panic recovered from the simulator itself — the
// last line of defense; simulators are expected to return typed errors on
// any input.
type PanicError struct {
	PC    uint64
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("vcode: simulator panicked at pc %#x: %v", e.PC, e.Value)
}
