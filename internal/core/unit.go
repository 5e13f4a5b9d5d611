package core

import "fmt"

// Unit is one program on a machine and the one owner of what the program
// placed there: functions, function-pointer table, data blocks and names.
// A front end builds into a unit; Unload returns every byte in one call
// (§5.2's "easily reclaimed when the function is deallocated", for a program
// of several pieces), and a member is then never installed again: calling
// it is ErrUnloaded.  The machine's lock guards the unit, so Unload waits for
// a running call.  A unit whose pieces a Release took must not be used.
type Unit struct {
	m *Machine

	fns       []*Func // members, in install order
	codeBytes int64   // their summed SizeBytes
	// table holds a pointer per member: slot i is fns[i]'s entry address.
	table uint64
	slots int
	// blocks is what the unit allocated, the table included, each as
	// {address, bytes asked for}; heapBytes is what they occupy.
	blocks    [][2]uint64
	first     [1][2]uint64 // where the first of blocks lives
	heapBytes uint64
	syms      map[string]uint64 // the unit's own names; nil until DefineSym
	unloaded  bool
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
	if u.blocks == nil {
		u.blocks = u.first[:0]
	}
	u.blocks = append(u.blocks, [2]uint64{addr, uint64(n)})
	u.heapBytes += heapBlock(n)
	if slots >= 0 {
		u.table, u.slots, u.fns = addr, slots, make([]*Func, 0, slots)
	}
	return addr, nil
}

// DefineSym binds a name in the unit's own scope: relocations of its
// members resolve there first, then among the machine-wide names (traps and
// Machine.DefineSym).  A name the machine defines is refused: a program
// neither shadows a runtime helper nor sees another program's names.
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

// Install makes fns members and places them in order, as Machine.Install
// would, filling their table slots.  After an error the caller unloads.
func (u *Unit) Install(fns ...*Func) error {
	u.m.mu.Lock()
	defer u.m.mu.Unlock()
	for _, f := range fns {
		if f == nil {
			return fmt.Errorf("machine: unit install of nil function")
		}
		if f.unit != nil || f.installed {
			return fmt.Errorf("machine: unit install of %s: %w", f.Name, ErrOwned)
		}
		f.unit = u
		if err := u.m.install(f); err != nil { // ErrUnloaded when u is
			f.unit = nil
			return err
		}
		u.fns = append(u.fns, f)
		u.codeBytes += int64(f.SizeBytes())
		if slot, ptr := len(u.fns)-1, u.m.ptrBytes; slot < u.slots {
			if err := u.m.mem.Store(u.table+uint64(slot*ptr), ptr, f.EntryAddr()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Funcs returns the members in install order (the unit's slice), CodeBytes
// their summed SizeBytes (what a code-bounded cache charges), HeapBytes what
// table and data occupy: for after the last Install, unchanged by Unload.
func (u *Unit) Funcs() []*Func    { return u.fns }
func (u *Unit) CodeBytes() int64  { return u.codeBytes }
func (u *Unit) HeapBytes() uint64 { return u.heapBytes }

// Unload takes the program off the machine under one hold of its lock:
// members still installed, then table, data and names.  Idempotent.
func (u *Unit) Unload() {
	u.m.mu.Lock()
	defer u.m.mu.Unlock()
	u.unloaded = true
	for _, f := range u.fns {
		if f.installed && f.owner == u.m {
			_ = u.m.uninstall(f) // cannot fail: installed here
		}
	}
	for _, b := range u.blocks {
		_ = u.m.free(b[0], int(b[1])) // refuses only a block a Release took back
	}
	u.blocks, u.syms = nil, nil
}
