package verify

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/exec"
)

// fakeDecoder interprets a tiny synthetic ISA so every verifier rule can
// be driven without a real backend.  Word layout: the top byte selects
// the kind, the low 24 bits are a signed word displacement for
// branch/call.
const (
	opNop     = 0x00 << 24
	opBranch  = 0x01 << 24
	opCall    = 0x02 << 24
	opJumpReg = 0x03 << 24
	opIllegal = 0x04 << 24
	opGarble  = 0x05 << 24 // classifies as other but renders as ".word"
)

type fakeDecoder struct {
	delaySlots int
}

func disp(w uint32) int64 {
	d := int64(w & 0xffffff)
	if d&0x800000 != 0 {
		d -= 1 << 24
	}
	return d
}

func (f fakeDecoder) Classify(w uint32, pc uint64) exec.Insn {
	switch w & 0xff000000 {
	case opBranch:
		return exec.Insn{Kind: exec.KindBranch, Target: uint64(int64(pc) + 4*disp(w)), HasTarget: true}
	case opCall:
		return exec.Insn{Kind: exec.KindCall, Target: uint64(int64(pc) + 4*disp(w)), HasTarget: true}
	case opJumpReg:
		return exec.Insn{Kind: exec.KindJumpReg}
	case opIllegal:
		return exec.Insn{Kind: exec.KindIllegal}
	}
	return exec.Insn{Kind: exec.KindOther}
}

func (f fakeDecoder) Disasm(w uint32, pc uint64) string {
	if w&0xff000000 == opGarble {
		return fmt.Sprintf(".word %#x", w)
	}
	return fmt.Sprintf("op%d %d", w>>24, disp(w))
}

func (f fakeDecoder) BranchDelaySlots() int { return f.delaySlots }

func code(words ...uint32) *Code {
	return &Code{Name: "t", Words: words, Base: 0x1000, PoolStart: len(words)}
}

func TestVerifySentinels(t *testing.T) {
	d := fakeDecoder{}
	dly := fakeDecoder{delaySlots: 1}
	ext := Options{ExternTarget: func(addr uint64) bool { return addr == 0x9000 }}

	branchTo := func(delta int64) uint32 { return opBranch | uint32(delta)&0xffffff }
	callTo := func(delta int64) uint32 { return opCall | uint32(delta)&0xffffff }

	cases := []struct {
		name string
		dec  Decoder
		c    *Code
		opt  Options
		want error // nil means must verify clean
	}{
		{"clean", d, code(opNop, branchTo(-1), opNop), Options{}, nil},
		{"illegal", d, code(opNop, opIllegal), Options{}, ErrIllegalInsn},
		// Legality is Classify's verdict alone: how Disasm renders a word
		// is error text, not a second check.
		{"illegal-not-by-disasm", d, code(opGarble), Options{}, nil},
		{"branch-past-end", d, code(branchTo(5), opNop), Options{}, ErrBranchTarget},
		{"branch-before-start", d, code(opNop, branchTo(-2)), Options{}, ErrBranchTarget},
		{"branch-into-pool", d, &Code{Name: "t", Words: []uint32{branchTo(1), opNop}, Base: 0x1000, PoolStart: 1}, Options{}, ErrBranchTarget},
		{"call-unknown-extern", d, code(callTo(100), opNop), Options{}, ErrCallTarget},
		{"call-known-extern", d, code(callTo(int64(0x9000-0x1000)/4), opNop), ext, nil},
		{"call-in-function", d, code(callTo(1), opNop), Options{}, nil},
		{"control-in-delay-slot", dly, code(branchTo(1), opJumpReg, opNop), Options{}, ErrDelaySlot},
		{"trailing-delay-slot", dly, code(opNop, branchTo(-1)), Options{}, ErrDelaySlot},
		{"delay-slot-padded-ok", dly, code(branchTo(1), opNop, opNop), Options{}, nil},
		{"no-delay-machine-ok", d, code(opNop, branchTo(-1)), Options{}, nil},
		{"bad-entry", d, &Code{Name: "t", Words: []uint32{opNop}, Base: 0x1000, Entry: 2, PoolStart: 1}, Options{}, ErrBounds},
		{"bad-pool", d, &Code{Name: "t", Words: []uint32{opNop}, Base: 0x1000, PoolStart: 5}, Options{}, ErrBounds},
		{"pool-ref-outside", d, &Code{
			Name: "t", Words: []uint32{opNop, 0, 0}, Base: 0x1000, PoolStart: 1,
			PoolRefs: []PoolRef{{Sites: []int{0}, Offset: 12, Size: 8}},
		}, Options{}, ErrPoolRef},
		{"pool-ref-ok", d, &Code{
			Name: "t", Words: []uint32{opNop, 0, 0}, Base: 0x1000, PoolStart: 1,
			PoolRefs: []PoolRef{{Sites: []int{0}, Offset: 4, Size: 8}},
		}, Options{}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Verify(tc.dec, tc.c, tc.opt)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Verify() = %v, want ok", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Verify() = %v, want %v", err, tc.want)
			}
			var ve *Error
			if !errors.As(err, &ve) {
				t.Fatalf("error is %T, want *Error", err)
			}
			if ve.Func != "t" {
				t.Errorf("Error.Func = %q", ve.Func)
			}
		})
	}
}

// TestErrorFormat pins the human-readable shape: function, word index,
// pc, disassembly.
func TestErrorFormat(t *testing.T) {
	err := Verify(fakeDecoder{}, code(opNop, opIllegal), Options{})
	var ve *Error
	if !errors.As(err, &ve) {
		t.Fatal(err)
	}
	if ve.Word != 1 || ve.PC != 0x1004 {
		t.Errorf("Word=%d PC=%#x, want 1/0x1004", ve.Word, ve.PC)
	}
	want := "verify t: word 1 at 0x1004 (op4 0): illegal instruction"
	if ve.Error() != want {
		t.Errorf("Error() = %q, want %q", ve.Error(), want)
	}
}
