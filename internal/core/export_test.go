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
