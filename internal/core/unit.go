package core

import "fmt"

// Unit is one program on a machine, the one owner of what it placed there
// (functions, function-pointer table, data blocks, names), and the one way
// code gets in: Machine.Install and a never-placed function's first call
// make a unit of one.  Unload — or an Uninstall or Release that takes one
// member — returns every byte in one call (§5.2's "easily reclaimed when
// the function is deallocated"), and a call of a member is then
// ErrUnloaded.  The machine's lock guards the unit.
type Unit struct {
	m        *Machine
	unloaded bool
	fns      []*Func // members, in install order
	// table holds a pointer per member: slot i is fns[i]'s entry address.
	table uint64
	slots int
	// blocks is what the unit allocated, the table included, each as
	// {address, bytes asked for}.
	blocks [][2]uint64
	syms   map[string]uint64 // the unit's own names; nil until DefineSym
}

// NewUnit returns an empty program on m.
func (m *Machine) NewUnit() *Unit { return &Unit{m: m} }

// Alloc reserves n bytes of heap, as Machine.Alloc does, for the unit.
func (u *Unit) Alloc(n int) (uint64, error) { return u.reserve(n, -1) }

// Table reserves the unit's function-pointer table, n pointers: slot i gets
// the i-th member's entry address, so members call each other in any order.
func (u *Unit) Table(n int) (uint64, error) { return u.reserve(n*u.m.ptrBytes, n) }

// reserve allocates n bytes for the unit, as its table when slots >= 0.
func (u *Unit) reserve(n, slots int) (uint64, error) {
	addr, err := u.m.Alloc(n)
	if err != nil {
		return 0, err
	}
	u.m.mu.Lock()
	defer u.m.mu.Unlock()
	u.blocks = append(u.blocks, [2]uint64{addr, uint64(n)})
	if slots >= 0 {
		u.table, u.slots, u.fns = addr, slots, make([]*Func, 0, slots)
	}
	return addr, nil
}

// DefineSym binds a name in the unit's own scope: relocations of its
// members resolve there first, then among the machine-wide names (trap
// vectors and Machine.DefineSym).  A name the machine defines is refused:
// a program neither shadows a runtime helper nor sees another program's
// names.
func (u *Unit) DefineSym(sym string, addr uint64) error {
	u.m.mu.Lock()
	defer u.m.mu.Unlock()
	_, global := u.m.syms[sym]
	if _, dup := u.syms[sym]; dup || global {
		return fmt.Errorf("machine: symbol %q already defined", sym)
	}
	if u.syms == nil {
		u.syms = make(map[string]uint64)
	}
	u.syms[sym] = addr
	return nil
}

// Install makes fns members and places them in order, filling their table
// slots; a generated function a member references that is resident nowhere
// joins the unit ahead of it.  A function resident anywhere is refused
// (ErrOwned); one whose earlier unit was unloaded may join.  After an error
// the caller unloads.
func (u *Unit) Install(fns ...*Func) error {
	u.m.mu.Lock()
	defer u.m.mu.Unlock()
	for _, f := range fns {
		if err := u.add(f); err != nil {
			return err
		}
	}
	return nil
}

// add places f as a member.  Caller holds the machine's lock.
func (u *Unit) add(f *Func) error {
	switch {
	case f == nil:
		return fmt.Errorf("machine: install of nil function")
	case u.unloaded:
		return fmt.Errorf("machine: %s: %w", f.Name, ErrUnloaded)
	case f.home() != nil:
		return fmt.Errorf("machine: unit install of %s: %w", f.Name, ErrOwned)
	}
	f.unit = u
	if err := u.m.install(f); err != nil {
		f.unit = nil
		return err
	}
	u.fns = append(u.fns, f)
	if slot, ptr := len(u.fns)-1, u.m.ptrBytes; slot < u.slots {
		return u.m.mem.Store(u.table+uint64(slot*ptr), ptr, f.EntryAddr())
	}
	return nil
}

// Funcs returns the members in install order (the unit's slice), CodeBytes
// their summed SizeBytes (what a code-bounded cache charges), HeapBytes what
// table and data occupy: for after the last Install, unchanged by Unload.
func (u *Unit) Funcs() []*Func { return u.fns }
func (u *Unit) CodeBytes() (n int64) {
	for _, f := range u.fns {
		n += int64(f.SizeBytes())
	}
	return n
}
func (u *Unit) HeapBytes() (n uint64) {
	for _, b := range u.blocks {
		n += heapBlock(int(b[1]))
	}
	return n
}

// Unload takes the program off the machine under one hold of its lock:
// members, then table, data and names.  Idempotent.
func (u *Unit) Unload() {
	u.m.mu.Lock()
	defer u.m.mu.Unlock()
	u.unload()
}

// unload is Unload for a caller that holds the machine's lock.  Every
// member of a unit not yet unloaded is resident.
func (u *Unit) unload() {
	if u.unloaded {
		return
	}
	u.unloaded = true
	for _, f := range u.fns {
		u.m.remove(f)
	}
	for _, b := range u.blocks {
		_ = u.m.free(b[0], int(b[1])) // refuses only a block a Release took back
	}
	u.syms = nil
}
