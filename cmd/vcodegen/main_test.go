package main

import (
	"bytes"
	"go/format"
	"os"
	"testing"
)

// TestGeneratedFileInSync regenerates the core instruction layer and
// compares it with the committed internal/core/instructions_gen.go, so
// the preprocessor and its output cannot drift apart.
func TestGeneratedFileInSync(t *testing.T) {
	var buf bytes.Buffer
	genCore(&buf)
	want, err := format.Source(buf.Bytes())
	if err != nil {
		t.Fatalf("generated source does not format: %v", err)
	}
	got, err := os.ReadFile("../../internal/core/instructions_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("internal/core/instructions_gen.go is out of date; regenerate with:\n  go run ./cmd/vcodegen -core > internal/core/instructions_gen.go")
	}
}

// TestDocInSync regenerates the instruction-set reference and compares it
// with the committed INSTRUCTIONS.md: the document is the reviewed
// statement of Tables 1 and 2, so it cannot drift from core's tables.
func TestDocInSync(t *testing.T) {
	var buf bytes.Buffer
	genDoc(&buf)
	got, err := os.ReadFile("../../INSTRUCTIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Fatal("INSTRUCTIONS.md is out of date; regenerate with:\n  go run ./cmd/vcodegen -doc > INSTRUCTIONS.md")
	}
}

// TestCoreLayerShape sanity-checks the generated family counts.
func TestCoreLayerShape(t *testing.T) {
	var buf bytes.Buffer
	genCore(&buf)
	src := buf.String()
	for _, want := range []string{
		"func (a *Asm) Addi(rd, rs1, rs2 Reg)",
		"func (a *Asm) Adduli(rd, rs Reg, imm int64)",
		"func (a *Asm) Ldusi(rd, rs Reg, off int64)",
		"func (a *Asm) Bltuli(rs Reg, imm int64, l Label)",
		"func (a *Asm) Cvd2f(rd, rs Reg)",
		"func (a *Asm) Retv()",
		"func (a *Asm) Setd(rd Reg, imm float64)",
	} {
		if !bytes.Contains([]byte(src), []byte(want)) {
			t.Errorf("generated layer missing %q", want)
		}
	}
	// Count generated methods as a coarse completeness check.
	n := bytes.Count([]byte(src), []byte("func (a *Asm) "))
	if n < 250 {
		t.Errorf("only %d generated methods; Table 2 composition should exceed 250", n)
	}
}
