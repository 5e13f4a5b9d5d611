package batch_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/mem"
)

func newPool(t *testing.T, workers int) (*jit.Machine, *batch.Pool) {
	t.Helper()
	jm, err := jit.NewMachineTarget("mips", mem.Uncosted)
	if err != nil {
		t.Fatal(err)
	}
	p, err := batch.New(batch.Config{Machine: jm.Core(), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return jm, p
}

// synReq compiles jit.Synthetic(k) on the assembler it is lent.
func synReq(k int32) batch.Request {
	return batch.Request{
		Name:    fmt.Sprintf("syn%d", k),
		Compile: func(a *core.Asm) (*core.Func, error) { return jit.CompileInto(a, jit.Synthetic(k)) },
	}
}

func TestCompileBatchBasic(t *testing.T) {
	jm, p := newPool(t, 4)
	const n = 64
	reqs := make([]batch.Request, n)
	for i := range reqs {
		reqs[i] = synReq(int32(i))
	}
	res := p.CompileBatch(context.Background(), reqs)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		got, _, err := jm.Run(r.Func, 10)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		// Synthetic(k)(n) = sum(i*k for i in 1..n) + n*(n+1)/2... the
		// repo-wide check: Synthetic(k)(10) == 385 + 10*k.
		if want := int32(385 + 10*i); got != want {
			t.Fatalf("syn%d(10) = %d, want %d", i, got, want)
		}
	}

	// The same functions compiled and installed by hand on a fresh machine
	// hold the same code volume.
	serial, err := jit.NewMachineTarget("mips", mem.Uncosted)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		fn, err := serial.Compile(jit.Synthetic(int32(i)))
		if err == nil {
			err = serial.Core().Install(fn)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if pooled, want := jm.Core().CodeBytesResident(), serial.Core().CodeBytesResident(); pooled != want {
		t.Errorf("CompileBatch left %d code bytes resident, Compile + Install %d", pooled, want)
	}
}

func TestPoisonedItemFailsAlone(t *testing.T) {
	jm, p := newPool(t, 3)
	boom := errors.New("boom")
	reqs := []batch.Request{
		synReq(1),
		{Name: "panics", Compile: func(a *core.Asm) (*core.Func, error) { panic("kaboom") }},
		{Name: "errors", Compile: func(a *core.Asm) (*core.Func, error) { return nil, boom }},
		synReq(2),
		// An undecodable word outside any constant pool: Install's verifier
		// rejects it.
		{Name: "unverifiable", Compile: func(a *core.Asm) (*core.Func, error) {
			return &core.Func{Name: "poison", BackendName: "mips", Words: []uint32{0xffffffff}, PoolStart: 1}, nil
		}},
	}
	res := p.CompileBatch(context.Background(), reqs)
	if res[4].Err == nil || res[4].Func != nil {
		t.Fatalf("res[4] = %v, %v, want no function and the verifier's error", res[4].Func, res[4].Err)
	}
	var pe *batch.PanicError
	if !errors.As(res[1].Err, &pe) || pe.Name != "panics" {
		t.Fatalf("res[1].Err = %v, want *batch.PanicError", res[1].Err)
	}
	if !errors.Is(res[2].Err, boom) {
		t.Fatalf("res[2].Err = %v, want %v", res[2].Err, boom)
	}
	for _, i := range []int{0, 3} {
		if res[i].Err != nil {
			t.Fatalf("sibling %d failed: %v", i, res[i].Err)
		}
		if got, _, err := jm.Run(res[i].Func, 10); err != nil || got != int32(385+10*(i/3+1)) {
			t.Fatalf("sibling %d run = %d, %v", i, got, err)
		}
	}
}

// TestCancelMidBatch cancels the context from inside one item's compile
// callback: that item and the ones before it install, every later item
// reports the cancellation and leaves nothing behind.
func TestCancelMidBatch(t *testing.T) {
	jm, p := newPool(t, 2)
	m := jm.Core()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n, stopAt = 16, 4
	reqs := make([]batch.Request, n)
	for i := range reqs {
		k := int32(i)
		reqs[i] = batch.Request{
			Name: fmt.Sprintf("syn%d", k),
			Compile: func(a *core.Asm) (*core.Func, error) {
				if k == stopAt {
					cancel()
				}
				return jit.CompileInto(a, jit.Synthetic(k))
			},
		}
	}
	before := m.ArenaStats().Funcs
	res := p.CompileBatch(ctx, reqs)
	for i, r := range res {
		switch {
		case i <= stopAt && (r.Err != nil || !m.Installed(r.Func)):
			t.Fatalf("item %d, compiled before the cancel: err %v", i, r.Err)
		case i > stopAt && (!errors.Is(r.Err, context.Canceled) || r.Func != nil):
			t.Fatalf("item %d, after the cancel: func %v, err %v", i, r.Func, r.Err)
		}
	}
	if got := m.ArenaStats().Funcs - before; got != stopAt+1 {
		t.Fatalf("%d functions installed by a batch canceled at item %d", got, stopAt)
	}
	// The pool stays usable with a fresh context.
	res = p.CompileBatch(context.Background(), []batch.Request{synReq(3)})
	if res[0].Err != nil {
		t.Fatalf("batch after cancel: %v", res[0].Err)
	}
	if got, _, err := jm.Run(res[0].Func, 10); err != nil || got != 415 {
		t.Fatalf("run after cancel = %d, %v", got, err)
	}
}

// TestConcurrentBatches interleaves many batches across goroutines under
// the race detector's eye.
func TestConcurrentBatches(t *testing.T) {
	jm, p := newPool(t, 4)
	const G, per = 6, 10
	errc := make(chan error, G)
	for g := 0; g < G; g++ {
		go func(g int) {
			reqs := make([]batch.Request, per)
			for i := range reqs {
				reqs[i] = synReq(int32(g*per + i))
			}
			for _, r := range p.CompileBatch(context.Background(), reqs) {
				if r.Err != nil {
					errc <- r.Err
					return
				}
				if _, _, err := jm.Run(r.Func, 5); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	deadline := time.After(30 * time.Second)
	for g := 0; g < G; g++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("concurrent batches timed out")
		}
	}
}
