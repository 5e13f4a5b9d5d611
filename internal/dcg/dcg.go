// Package dcg reimplements the baseline VCODE is measured against: DCG
// (Engler & Proebsting, ASPLOS 1994), a general-purpose dynamic code
// generation system that — unlike VCODE — builds an intermediate
// representation at runtime.  Clients construct expression trees; code
// generation then makes a labelling pass (bottom-up cost assignment, in
// the lburg tradition) and a reduction pass (post-order emission with
// temporary-register management) over every tree.
//
// The paper's headline comparison is that eliminating exactly this
// build-then-consume-IR work makes VCODE roughly 35x faster at generating
// code; BenchmarkCodegen* in the repository root measures the two systems
// against each other on identical instruction streams.
package dcg

import (
	"fmt"

	"repro/internal/core"
)

// NodeKind discriminates tree nodes.
type NodeKind uint8

const (
	// KindOp is an interior operator node.
	KindOp NodeKind = iota
	// KindImm is an immediate leaf.
	KindImm
	// KindReg is a register leaf (e.g. an incoming parameter).
	KindReg
	// KindLoad is a memory load from address+offset.
	KindLoad
)

// Node is one IR tree node.  Nodes are heap-allocated at runtime —
// deliberately so: the cost VCODE eliminates is precisely this allocation
// and the later traversal.
type Node struct {
	Kind NodeKind
	Op   core.Op
	T    core.Type
	L, R *Node
	Imm  int64
	Reg  core.Reg
	Off  int64

	// Labelling state.
	cost    int
	useImmR bool // right operand folds into an immediate form
}

// Gen builds and compiles IR trees for one function at a time.  Nodes are
// retained on an arena until End, as DCG retains its IR while generating —
// this is the storage proportional to instruction count that VCODE's
// in-place generation eliminates (§3).
type Gen struct {
	asm   *core.Asm
	arena []*Node
	roots int
}

// New returns a generator for the given backend.
func New(b core.Backend) *Gen {
	return &Gen{asm: core.NewAsm(b)}
}

func (g *Gen) alloc(n Node) *Node {
	p := new(Node)
	*p = n
	g.arena = append(g.arena, p)
	return p
}

// Asm exposes the underlying assembler (tests, register queries).
func (g *Gen) Asm() *core.Asm { return g.asm }

// Begin starts a function; see core.Asm.Begin.
func (g *Gen) Begin(sig string, leaf bool) ([]core.Reg, error) {
	g.roots = 0
	g.arena = g.arena[:0]
	return g.asm.Begin(sig, leaf)
}

// End finishes the function.
func (g *Gen) End() (*core.Func, error) { return g.asm.End() }

// --- tree constructors (the DCG client interface) ---

// Imm builds an immediate leaf.
func (g *Gen) Imm(t core.Type, v int64) *Node {
	return g.alloc(Node{Kind: KindImm, T: t, Imm: v})
}

// Reg builds a register leaf.
func (g *Gen) Reg(t core.Type, r core.Reg) *Node {
	return g.alloc(Node{Kind: KindReg, T: t, Reg: r})
}

// Load builds a memory load of type t from base+off.
func (g *Gen) Load(t core.Type, base *Node, off int64) *Node {
	return g.alloc(Node{Kind: KindLoad, T: t, L: base, Off: off})
}

// Op builds a binary operator node.
func (g *Gen) Op(op core.Op, t core.Type, l, r *Node) *Node {
	return g.alloc(Node{Kind: KindOp, Op: op, T: t, L: l, R: r})
}

// Unary builds a unary operator node (com, not, mov, neg).
func (g *Gen) Unary(op core.Op, t core.Type, l *Node) *Node {
	return g.alloc(Node{Kind: KindOp, Op: op, T: t, L: l})
}

// --- statements: each consumes (labels + reduces) its trees ---

// Ret compiles "return tree".
func (g *Gen) Ret(t core.Type, n *Node) error {
	r, err := g.compile(n)
	if err != nil {
		return err
	}
	g.asm.Ret(t, r)
	g.asm.PutReg(r)
	return g.asm.Err()
}

// Store compiles "*(t*)(base+off) = tree".
func (g *Gen) Store(t core.Type, base *Node, off int64, val *Node) error {
	rb, err := g.compile(base)
	if err != nil {
		return err
	}
	rv, err := g.compile(val)
	if err != nil {
		return err
	}
	g.asm.StI(t, rv, rb, off)
	g.asm.PutReg(rb)
	g.asm.PutReg(rv)
	return g.asm.Err()
}

// Branch compiles "if l op r goto label".
func (g *Gen) Branch(op core.Op, t core.Type, l, r *Node, lbl core.Label) error {
	rl, err := g.compile(l)
	if err != nil {
		return err
	}
	label(r)
	if r.Kind == KindImm {
		g.asm.BrI(op, t, rl, r.Imm, lbl)
		g.asm.PutReg(rl)
		return g.asm.Err()
	}
	rr, err := g.compile(r)
	if err != nil {
		return err
	}
	g.asm.Br(op, t, rl, rr, lbl)
	g.asm.PutReg(rl)
	g.asm.PutReg(rr)
	return g.asm.Err()
}

// NewLabel and Bind delegate to the assembler.
func (g *Gen) NewLabel() core.Label { return g.asm.NewLabel() }

// Bind binds a label at the current position.
func (g *Gen) Bind(l core.Label) { g.asm.Bind(l) }

// --- the two IR passes VCODE exists to avoid ---

// rule is one entry of the BURS-style rule table the labeller matches
// trees against, in the lburg tradition DCG descends from.
type rule struct {
	kind     NodeKind
	op       core.Op
	anyOp    bool
	immRight bool // right operand folds into the immediate form
	cost     int
}

// ruleTable holds one register-form and one immediate-form rule per
// operator, plus the leaf and memory rules.  The labeller's job — walk
// every node, try every candidate rule, keep the cheapest — is exactly
// the per-node runtime work that VCODE's zero-pass design avoids.
var ruleTable = buildRules()

func buildRules() []rule {
	rs := []rule{
		{kind: KindImm, cost: 1},
		{kind: KindReg, cost: 0},
		{kind: KindLoad, cost: 1},
		{kind: KindOp, anyOp: true, cost: 1}, // generic unary/binary
	}
	for op := core.Op(0); op.IsBinary(); op++ {
		rs = append(rs, rule{kind: KindOp, op: op, cost: 1})
		rs = append(rs, rule{kind: KindOp, op: op, immRight: true, cost: 1})
	}
	return rs
}

func (r *rule) matches(n *Node) bool {
	if n.Kind != r.kind {
		return false
	}
	if n.Kind != KindOp {
		return true
	}
	if !r.anyOp && n.Op != r.op {
		return false
	}
	if r.immRight {
		return n.R != nil && n.R.Kind == KindImm && !n.T.IsFloat()
	}
	return true
}

// label performs the bottom-up cost/rule assignment pass.
func label(n *Node) int {
	if n == nil {
		return 0
	}
	cl := label(n.L)
	cr := label(n.R)
	best := 1 << 30
	for i := range ruleTable {
		r := &ruleTable[i]
		if !r.matches(n) {
			continue
		}
		c := r.cost + cl
		if !r.immRight {
			c += cr
		}
		if c < best {
			best = c
			n.useImmR = r.immRight
		}
	}
	n.cost = best
	return n.cost
}

// compile labels and reduces a tree, returning the register holding its
// value.  The caller owns the returned register and must PutReg it.
func (g *Gen) compile(n *Node) (core.Reg, error) {
	label(n)
	return g.reduce(n)
}

// reduce is the post-order emission pass.
func (g *Gen) reduce(n *Node) (core.Reg, error) {
	switch n.Kind {
	case KindReg:
		// Copy into a fresh register so the value can be consumed
		// uniformly (DCG's uniform-temporary discipline).
		rd, err := g.tempFor(n.T)
		if err != nil {
			return core.NoReg, err
		}
		g.asm.Unary(core.OpMov, n.T, rd, n.Reg)
		return rd, g.asm.Err()
	case KindImm:
		rd, err := g.tempFor(n.T)
		if err != nil {
			return core.NoReg, err
		}
		g.asm.SetI(n.T, rd, n.Imm)
		return rd, g.asm.Err()
	case KindLoad:
		base, err := g.reduce(n.L)
		if err != nil {
			return core.NoReg, err
		}
		rd := base
		if n.T.IsFloat() {
			g.asm.PutReg(base)
			rd, err = g.tempFor(n.T)
			if err != nil {
				return core.NoReg, err
			}
		}
		g.asm.LdI(n.T, rd, base, n.Off)
		return rd, g.asm.Err()
	case KindOp:
		if n.R == nil { // unary
			l, err := g.reduce(n.L)
			if err != nil {
				return core.NoReg, err
			}
			g.asm.Unary(n.Op, n.T, l, l)
			return l, g.asm.Err()
		}
		l, err := g.reduce(n.L)
		if err != nil {
			return core.NoReg, err
		}
		if n.useImmR {
			g.asm.ALUI(n.Op, n.T, l, l, n.R.Imm)
			return l, g.asm.Err()
		}
		r, err := g.reduce(n.R)
		if err != nil {
			return core.NoReg, err
		}
		g.asm.ALU(n.Op, n.T, l, l, r)
		g.asm.PutReg(r)
		return l, g.asm.Err()
	}
	return core.NoReg, fmt.Errorf("dcg: bad node kind %d", n.Kind)
}

func (g *Gen) tempFor(t core.Type) (core.Reg, error) {
	if t.IsFloat() {
		return g.asm.GetFReg(core.Temp)
	}
	return g.asm.GetReg(core.Temp)
}
