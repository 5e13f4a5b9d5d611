package core

// Free is the heap's block return, which only Unit.Unload reaches, for the
// test that feeds it blocks no allocation handed out.
func (m *Machine) Free(addr uint64, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.free(addr, n)
}

// Template is one template as the tests sweep it: the generic emitter it
// serves ("ALU", "ALUI", "LdI", "StI", "Unary", "Br", "BrI"), its (op,
// type), the immediates it holds for and the words it emits.
type Template struct {
	Door   string
	Op     Op
	T      Type
	Lo, Hi int64
	Words  int
}

// All lists the templates ts holds.
func (ts *Templates) All() []Template {
	var out []Template
	add := func(door string, op Op, t Type, tp *tmpl) {
		if tp.ok {
			out = append(out, Template{door, op, t, tp.lo, tp.hi, 1})
		}
	}
	form := func(door string, op Op, t Type, sq *seq) {
		if sq.ok {
			out = append(out, Template{door, op, t, sq.lo, sq.hi, sq.n})
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
		for op := OpCom; op <= OpNeg; op++ {
			add("Unary", op, t, &ts.un[op-OpCom][t])
		}
		for op := OpBlt; op <= OpBne; op++ {
			form("Br", op, t, &ts.br[op-OpBlt][t])
			form("BrI", op, t, &ts.zero[op-OpBlt][t])
			form("BrI", op, t, &ts.bri[op-OpBlt][t])
		}
	}
	return out
}
