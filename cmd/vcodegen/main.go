// Command vcodegen is VCODE's instruction-specification preprocessor
// (paper §5.4).  It composes each base operation with the types it takes —
// core's one declaration of Tables 1 and 2 — and generates the
// per-instruction Go method layer, the analog of the paper's C macro layer,
// and the INSTRUCTIONS.md reference (-doc).
//
// With -core it emits the builtin core layer (this is how
// internal/core/instructions_gen.go is produced):
//
//	go run ./cmd/vcodegen -core > internal/core/instructions_gen.go
//
// With -spec FILE it parses a client extension specification in the
// paper's s-expression form,
//
//	(sqrt (rd, rs) (f fsqrts) (d fsqrtd))
//
// and emits Go wrappers that invoke the extension mechanism, so a single
// spec line adds a whole family of instructions.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/spec"
)

// opDoc describes each op of Table 2 for the generated comments and the
// reference; which types an op takes is core's to say.
var opDoc = map[string]string{
	"add": "addition", "sub": "subtraction", "mul": "multiplication", "div": "division",
	"mod": "modulus", "and": "logical and", "or": "logical or", "xor": "logical xor",
	"lsh": "left shift", "rsh": "right shift (sign-propagating for signed types)",
	"com": "bit complement", "not": "logical not", "mov": "register copy", "neg": "negation",
	"set": "load constant", "ld": "load", "st": "store", "ret": "return value to caller",
	"blt": "branch if less than", "ble": "branch if less than or equal",
	"bgt": "branch if greater than", "bge": "branch if greater than or equal",
	"beq": "branch if equal", "bne": "branch if not equal",
}

func title(s string) string { return strings.ToUpper(s[:1]) + s[1:] }

func typeConst(t core.Type) string { return "Type" + strings.ToUpper(t.Letter()) }

func genCore(w *bytes.Buffer) {
	fmt.Fprintln(w, "// Code generated by \"go run ./cmd/vcodegen -core\"; DO NOT EDIT.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "package core")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "// This file is the VCODE per-instruction layer (the analog of the paper's")
	fmt.Fprintln(w, "// C macro layer): one method per base-operation/type composition, named by")
	fmt.Fprintln(w, "// the paper's convention — base name, then the type letter, then a")
	fmt.Fprintln(w, "// trailing \"i\" for immediate-operand forms.  v_addii becomes Addii.")
	fmt.Fprintln(w)

	for op := core.Op(0); op < core.NumOps; op++ {
		base, oc, doc := op.String(), "Op"+title(op.String()), opDoc[op.String()]
		for _, ty := range op.Types() {
			t, tc := ty.Letter(), typeConst(ty)
			name, in := title(base+t), title(base+t+"i")
			switch {
			case op.IsBinary():
				fmt.Fprintf(w, "// %s emits v_%s%s: rd = rs1 %s rs2 (%s).\n", name, base, t, base, doc)
				fmt.Fprintf(w, "func (a *Asm) %s(rd, rs1, rs2 Reg) { a.ALU(%s, %s, rd, rs1, rs2) }\n\n", name, oc, tc)
				if !ty.IsFloat() {
					fmt.Fprintf(w, "// %s emits v_%s%si: rd = rs %s imm.\n", in, base, t, base)
					fmt.Fprintf(w, "func (a *Asm) %s(rd, rs Reg, imm int64) { a.ALUI(%s, %s, rd, rs, imm) }\n\n", in, oc, tc)
				}
			case op.IsBranch():
				fmt.Fprintf(w, "// %s emits v_%s%s: %s, comparing rs1 and rs2.\n", name, base, t, doc)
				fmt.Fprintf(w, "func (a *Asm) %s(rs1, rs2 Reg, l Label) { a.Br(%s, %s, rs1, rs2, l) }\n\n", name, oc, tc)
				if !ty.IsFloat() {
					fmt.Fprintf(w, "// %s emits v_%s%si: %s, comparing rs and imm.\n", in, base, t, doc)
					fmt.Fprintf(w, "func (a *Asm) %s(rs Reg, imm int64, l Label) { a.BrI(%s, %s, rs, imm, l) }\n\n", in, oc, tc)
				}
			case op == core.OpSet && ty == core.TypeF:
				fmt.Fprintf(w, "// Setf emits v_setf: rd = imm (float, via the constant pool).\n")
				fmt.Fprintf(w, "func (a *Asm) Setf(rd Reg, imm float32) { a.SetF(rd, imm) }\n\n")
			case op == core.OpSet && ty == core.TypeD:
				fmt.Fprintf(w, "// Setd emits v_setd: rd = imm (double, via the constant pool).\n")
				fmt.Fprintf(w, "func (a *Asm) Setd(rd Reg, imm float64) { a.SetD(rd, imm) }\n\n")
			case op == core.OpSet:
				fmt.Fprintf(w, "// %s emits v_set%s: rd = imm.\n", name, t)
				fmt.Fprintf(w, "func (a *Asm) %s(rd Reg, imm int64) { a.SetI(%s, rd, imm) }\n\n", name, tc)
			case op == core.OpLd:
				fmt.Fprintf(w, "// %s emits v_ld%s: rd = *(%s*)(rs + roff).\n", name, t, tc)
				fmt.Fprintf(w, "func (a *Asm) %s(rd, rs, roff Reg) { a.Ld(%s, rd, rs, roff) }\n\n", name, tc)
				fmt.Fprintf(w, "// %s emits v_ld%si: rd = *(%s*)(rs + off).\n", in, t, tc)
				fmt.Fprintf(w, "func (a *Asm) %s(rd, rs Reg, off int64) { a.LdI(%s, rd, rs, off) }\n\n", in, tc)
			case op == core.OpSt:
				fmt.Fprintf(w, "// %s emits v_st%s: *(%s*)(rb + roff) = rs.\n", name, t, tc)
				fmt.Fprintf(w, "func (a *Asm) %s(rs, rb, roff Reg) { a.St(%s, rs, rb, roff) }\n\n", name, tc)
				fmt.Fprintf(w, "// %s emits v_st%si: *(%s*)(rb + off) = rs.\n", in, t, tc)
				fmt.Fprintf(w, "func (a *Asm) %s(rs, rb Reg, off int64) { a.StI(%s, rs, rb, off) }\n\n", in, tc)
			case op == core.OpRet:
				fmt.Fprintf(w, "// %s emits v_ret%s: return rs (%s).\n", name, t, tc)
				fmt.Fprintf(w, "func (a *Asm) %s(rs Reg) { a.Ret(%s, rs) }\n\n", name, tc)
			default:
				fmt.Fprintf(w, "// %s emits v_%s%s: rd = %s rs (%s).\n", name, base, t, base, doc)
				fmt.Fprintf(w, "func (a *Asm) %s(rd, rs Reg) { a.Unary(%s, %s, rd, rs) }\n\n", name, oc, tc)
			}
		}
	}
	fmt.Fprintf(w, "// Retv emits v_retv: return with no value.\n")
	fmt.Fprintf(w, "func (a *Asm) Retv() { a.RetVoid() }\n\n")

	for from := core.TypeV; from < core.NumTypes; from++ {
		for _, to := range from.ConvertsTo() {
			name := "Cv" + from.Letter() + "2" + to.Letter()
			fmt.Fprintf(w, "// %s emits v_cv%s2%s: rd = (%s)rs.\n", name, from.Letter(), to.Letter(), typeConst(to))
			fmt.Fprintf(w, "func (a *Asm) %s(rd, rs Reg) { a.Cvt(%s, %s, rd, rs) }\n\n", name, typeConst(from), typeConst(to))
		}
	}
}

// letters joins the type letters of ts.
func letters(ts []core.Type) string {
	ls := make([]string, len(ts))
	for i, t := range ts {
		ls[i] = t.Letter()
	}
	return strings.Join(ls, " ")
}

// genDoc emits INSTRUCTIONS.md: the reproduction of the paper's Table 1
// (types) and Table 2 (the core instruction set) as reference
// documentation, read from core's declarations, which the code is
// generated from too.
func genDoc(w *bytes.Buffer) {
	fmt.Fprintln(w, "# The VCODE instruction set")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Generated by `go run ./cmd/vcodegen -doc` from the declarations of")
	fmt.Fprintln(w, "Tables 1 and 2 in `internal/core` (each op's types, the conversion matrix")
	fmt.Fprintln(w, "and the C names), which the Go instruction layer, vasm and the emitters'")
	fmt.Fprintln(w, "legality checks read too; this file reproduces the paper's Tables 1 and 2.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "## Types (Table 1)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| letter | C equivalent |")
	fmt.Fprintln(w, "|---|---|")
	for t := core.TypeV; t < core.NumTypes; t++ {
		fmt.Fprintf(w, "| %s | %s |\n", t.Letter(), t.CName())
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "## Core instructions (Table 2)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Each base operation composes with its type list; immediate forms append")
	fmt.Fprintln(w, "`i` (v_addii = ADD Integer Immediate).  Go method names capitalize the")
	fmt.Fprintln(w, "first letter: `Addii`.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| base | types | description | immediate form |")
	fmt.Fprintln(w, "|---|---|---|---|")
	for op := core.Op(0); op < core.NumOps; op++ {
		imm := "-"
		switch {
		case op == core.OpSet:
			imm = "(constant operand)"
		case op.IsBinary(), op.IsBranch(), op == core.OpLd, op == core.OpSt:
			imm = "yes"
		}
		if ts := op.Types(); ts != nil {
			fmt.Fprintf(w, "| %s | %s | %s | %s |\n", op, letters(ts), opDoc[op.String()], imm)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "### Conversions")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| from | to |")
	fmt.Fprintln(w, "|---|---|")
	for from := core.TypeV; from < core.NumTypes; from++ {
		if tos := from.ConvertsTo(); tos != nil {
			fmt.Fprintf(w, "| %s | %s |\n", from.Letter(), letters(tos))
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "### Control and structure")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "- `Jmp l` / `JmpReg r` — unconditional jumps (v_jv)")
	fmt.Fprintln(w, "- `Jal l` / `JalReg r` / `CallFunc f` / `CallSym s` / `CallReg r` — calls (v_jalv)")
	fmt.Fprintln(w, "- `StartCall sig` / `SetArg i r` / `RetVal t r` — runtime-arity call construction")
	fmt.Fprintln(w, "- `Retv` — return without a value")
	fmt.Fprintln(w, "- `Nop`")
	fmt.Fprintln(w, "- `Begin`/`End` (v_lambda/v_end), `NewLabel`/`Bind` (v_genlabel/v_label),")
	fmt.Fprintln(w, "  `GetReg`/`PutReg` (v_getreg/v_putreg), `Local` (v_local)")
	fmt.Fprintln(w, "- `ScheduleDelay`/`RawLoad` — portable delay-slot scheduling (§5.3)")
	fmt.Fprintln(w, "- `Ext name t rd rs...` — extension instructions (§5.4); builtins:")
	fmt.Fprintln(w, "  cmovne, cmoveq, abs, min, max, sqrt, bswap2, bswap4, prefetch")
}

func main() {
	coreMode := flag.Bool("core", false, "generate the builtin core instruction layer")
	docMode := flag.Bool("doc", false, "generate the instruction-set reference (markdown)")
	specFile := flag.String("spec", "", "generate Go wrappers from an extension specification file")
	pkg := flag.String("package", "main", "package name for -spec output")
	flag.Parse()

	var buf bytes.Buffer
	switch {
	case *docMode:
		genDoc(&buf)
		os.Stdout.Write(buf.Bytes())
		return
	case *coreMode:
		genCore(&buf)
	case *specFile != "":
		text, err := os.ReadFile(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vcodegen:", err)
			os.Exit(1)
		}
		defs, err := spec.Parse(string(text))
		if err != nil {
			fmt.Fprintln(os.Stderr, "vcodegen:", err)
			os.Exit(1)
		}
		src, err := spec.GenerateGo(*pkg, defs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vcodegen:", err)
			os.Exit(1)
		}
		buf.WriteString(src)
	default:
		fmt.Fprintln(os.Stderr, "vcodegen: need -core or -spec FILE")
		os.Exit(2)
	}

	out, err := format.Source(buf.Bytes())
	if err != nil {
		// Emit unformatted source with the error so it can be debugged.
		fmt.Fprintln(os.Stderr, "vcodegen: gofmt:", err)
		out = buf.Bytes()
	}
	os.Stdout.Write(out)
}
