package core

// The bounds of the instruction set, for the external tests that sweep it.
const (
	NumOps   = numOps
	NumTypes = numTypes
)
