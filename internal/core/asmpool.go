package core

// A front end that compiles a program needs an assembler per function and
// is done with each a few microseconds later.  A new Asm allocates its code
// buffer and then regrows every bookkeeping slice from nothing; one that
// has built a function before allocates only what End hands away.  The
// machine therefore keeps the idle ones.

const (
	// maxIdleAsms is how many idle assemblers a machine keeps: enough for
	// the compiles that overlap on one machine (a server shard's compile
	// slots); one returned beyond it is dropped.
	maxIdleAsms = 4
	// maxIdleAsmWords keeps one enormous function from pinning its code
	// buffer to the machine for good.
	maxIdleAsmWords = 1 << 14
)

// BorrowAsm returns an idle assembler for the machine's backend and default
// calling convention: one handed back earlier, or a new one.  The borrower
// builds any number of functions on it and hands it back with ReturnAsm.
// One it abandons mid-build — its front end failed, or panicked — it drops:
// an assembler in an unknown state is never worth recycling.
func (m *Machine) BorrowAsm() *Asm {
	m.asmMu.Lock()
	if m.nIdleAsms > 0 {
		m.nIdleAsms--
		a := m.idleAsms[m.nIdleAsms]
		m.idleAsms[m.nIdleAsms] = nil
		m.asmMu.Unlock()
		return a
	}
	m.asmMu.Unlock()
	return NewAsm(m.backend)
}

// ReturnAsm hands a borrowed assembler back.  Whatever of the borrower would
// outlive End is scrubbed — extension definitions, Record arming and the
// last recording, the function name — so the next borrower gets what NewAsm
// would give it, but for capacity.  An assembler that is mid-build, carries
// a sticky error, or was not made for this machine is dropped instead.
func (m *Machine) ReturnAsm(a *Asm) {
	if a == nil || a.backend != m.backend || a.conv != m.conv ||
		a.state == stBuilding || a.err != nil || cap(a.buf.w) > maxIdleAsmWords {
		return
	}
	a.name = ""
	a.exts = nil
	a.recOn, a.rec = false, nil
	a.gate()
	m.asmMu.Lock()
	defer m.asmMu.Unlock()
	for _, idle := range m.idleAsms[:m.nIdleAsms] {
		if idle == a {
			return // returned twice: must not reach two borrowers
		}
	}
	if m.nIdleAsms < maxIdleAsms {
		m.idleAsms[m.nIdleAsms] = a
		m.nIdleAsms++
	}
}
