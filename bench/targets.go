package main

import (
	"context"
	"fmt"

	"repro/internal/alpha"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/sparc"
)

// backendNames is the rotation order every multi-backend workload uses.
var backendNames = []string{"mips", "sparc", "alpha"}

func newBackend(name string) core.Backend {
	switch name {
	case "mips":
		return mips.New()
	case "sparc":
		return sparc.New()
	case "alpha":
		return alpha.New()
	}
	panic("bench: backend " + name)
}

// target is one simulated machine with the buffer generated code reads and
// writes.  Machines use the flat cost model (no data cache), so simulated
// cycles depend on the instructions run and nothing else.
type target struct {
	name string
	jm   *jit.Machine
	m    *core.Machine
	bk   core.Backend
	asm  *core.Asm
	base uint64 // simulated address of the ro+scratch buffer
	// callSpan and emitSpan are this backend's span names, built once: a
	// name concatenated at the call site would allocate on every call, in
	// the untraced pass too.
	callSpan, emitSpan string
}

func newTarget(name string, ro []int32) (*target, error) {
	jm, err := jit.NewMachineTarget(name, mem.Uncosted)
	if err != nil {
		return nil, err
	}
	t := &target{name: name, jm: jm, m: jm.Core(), bk: jm.Core().Backend(), callSpan: "call." + name, emitSpan: "emit." + name}
	t.asm = core.NewAsm(t.bk)
	if t.base, err = t.m.Alloc(bufBytes); err != nil {
		return nil, err
	}
	for i, v := range ro {
		if err := t.m.Mem().Store(t.base+uint64(4*i), 4, uint64(uint32(v))); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func newTargets(ro []int32) ([]*target, error) {
	var ts []*target
	for _, name := range backendNames {
		t, err := newTarget(name, ro)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// args marshals a vprog call's (base, n) arguments once, so the timed loop
// passes a ready slice.
func (t *target) args(n int32) []core.Value {
	return []core.Value{core.P(t.base), core.I(n)}
}

// callOn runs fn under the given engine and restores the threaded default.
func (t *target) callOn(e core.Engine, fn *core.Func, args []core.Value) (core.Value, core.CallStats, error) {
	if err := t.m.SetEngine(e); err != nil {
		return core.Value{}, core.CallStats{}, err
	}
	v, st, err := t.m.CallWithStats(context.Background(), core.CallOpts{}, fn, args...)
	if e != core.EngineThreaded {
		if serr := t.m.SetEngine(core.EngineThreaded); serr != nil && err == nil {
			err = serr
		}
	}
	return v, st, err
}

// refCall is the set-up check every installed vprog goes through: the
// switch engine's result must equal the Go reference, and the threaded
// engine must agree with the switch engine on result, cycles and retired
// instructions.  It returns the per-call counts the timed loop then holds
// every call to.
func (t *target) refCall(p *vprog, fn *core.Func, ro []int32, n int32) (want int32, st core.CallStats, err error) {
	want, _, err = p.eval(ro, n)
	if err != nil {
		return 0, st, err
	}
	args := t.args(n)
	sv, sst, err := t.callOn(core.EngineSwitch, fn, args)
	if err != nil {
		return 0, st, err
	}
	if int32(sv.Int()) != want {
		return 0, st, fmt.Errorf("%s/%s: switch engine = %d, reference = %d", t.name, p.name, sv.Int(), want)
	}
	tv, tst, err := t.callOn(core.EngineThreaded, fn, args)
	if err != nil {
		return 0, st, err
	}
	if tv != sv || tst.Cycles != sst.Cycles || tst.Insns != sst.Insns {
		return 0, st, fmt.Errorf("%s/%s: threaded (%d, %d cycles, %d insns) != switch (%d, %d, %d)",
			t.name, p.name, tv.Int(), tst.Cycles, tst.Insns, sv.Int(), sst.Cycles, sst.Insns)
	}
	return want, tst, nil
}
