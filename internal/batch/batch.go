// Package batch is what is left of the parallel batch compilation pipeline:
// a loop of compile + Machine.Install on the calling goroutine.  The worker
// pool it drove ran at 0.5–0.8× the speed of that loop (DESIGN §11) and is
// gone; what remains is the surface bench/'s batch.* probe compiles against.
package batch

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// PanicError reports that a compile callback panicked.
type PanicError struct {
	Name  string // Request.Name of the poisoned item
	Value any    // recovered panic value
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("batch: compile for %q panicked: %v", e.Name, e.Value)
}

// Request is one unit of work: Compile builds a function on the assembler
// it is handed and must not keep it.  Name labels the item in errors.
type Request struct {
	Name    string
	Compile func(a *core.Asm) (*core.Func, error)
}

// Result is one item's outcome: exactly one of Func and Err is non-nil.
type Result struct {
	Func *core.Func
	Err  error
}

// Config names the machine the functions install into.  Workers is
// ignored: there are no workers.
type Config struct {
	Machine *core.Machine
	Workers int
}

// Pool compiles and installs into one machine.
type Pool struct{ m *core.Machine }

// New never fails; the error result is part of the surface the probe calls.
func New(cfg Config) (*Pool, error) { return &Pool{m: cfg.Machine}, nil }

// CompileBatch compiles and installs the requests in order, one Result each.
// A request that fails, panics or finds ctx done fails alone.
func (p *Pool) CompileBatch(ctx context.Context, reqs []Request) []Result {
	res := make([]Result, len(reqs))
	for i := range reqs {
		if res[i].Err = ctx.Err(); res[i].Err == nil {
			res[i].Func, res[i].Err = p.compileOne(&reqs[i])
		}
	}
	return res
}

func (p *Pool) compileOne(req *Request) (fn *core.Func, err error) {
	defer func() {
		if r := recover(); r != nil {
			fn, err = nil, &PanicError{Name: req.Name, Value: r}
		}
	}()
	asm := p.m.BorrowAsm()
	if fn, err = req.Compile(asm); err == nil {
		p.m.ReturnAsm(asm) // one abandoned mid-build is not recycled
		err = p.m.Install(fn)
	}
	if err != nil {
		return nil, err
	}
	return fn, nil
}

// Close does nothing; the benchmark probe defers it.
func (p *Pool) Close() {}
