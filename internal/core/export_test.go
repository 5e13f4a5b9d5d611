package core

// The bounds of the instruction set, for the external tests that sweep it.
const (
	NumOps   = numOps
	NumTypes = numTypes
)

// Free is the heap's block return, which only Unit.Unload reaches, for the
// test that feeds it blocks no allocation handed out.
func (m *Machine) Free(addr uint64, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.free(addr, n)
}

// Template is one template as the tests sweep it: the generic emitter it
// serves ("ALU", "ALUI", "LdI", "StI"), its (op, type) and the immediates it
// holds for.
type Template struct {
	Door   string
	Op     Op
	T      Type
	Lo, Hi int64
}

// All lists the templates ts holds.
func (ts *Templates) All() []Template {
	var out []Template
	add := func(door string, op Op, t Type, tp *tmpl) {
		if tp.ok {
			out = append(out, Template{door, op, t, tp.lo, tp.hi})
		}
	}
	for op := Op(0); op < numBinOps; op++ {
		for t := TypeV; t < numTypes; t++ {
			add("ALU", op, t, &ts.alu[op][t])
			add("ALUI", op, t, &ts.alui[op][t])
		}
	}
	for t := TypeV; t < numTypes; t++ {
		add("LdI", OpLd, t, &ts.ld[t])
		add("StI", OpSt, t, &ts.st[t])
	}
	return out
}
