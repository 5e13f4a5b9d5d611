package batch_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/mem"
	"repro/internal/telemetry"
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

// synReq compiles jit.Synthetic(k) through the worker's assembler.
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

	// The same functions compiled and installed one at a time on a fresh
	// machine hold the same code volume: the batched install leaks and
	// pads nothing.
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
		t.Errorf("pooled installs left %d code bytes resident, serial installs %d", pooled, want)
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
	}
	res := p.CompileBatch(context.Background(), reqs)
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
// callback: later compiles are skipped, the batched install aborts, and
// the machine arena is exactly as before — nothing half-installed.
func TestCancelMidBatch(t *testing.T) {
	jm, p := newPool(t, 2)
	m := jm.Core()
	resident := m.CodeBytesResident()
	spans := len(m.FuncSpans())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 16
	reqs := make([]batch.Request, n)
	for i := range reqs {
		k := int32(i)
		reqs[i] = batch.Request{
			Name: fmt.Sprintf("syn%d", k),
			Compile: func(a *core.Asm) (*core.Func, error) {
				if k == 4 {
					cancel()
				}
				return jit.CompileInto(a, jit.Synthetic(k))
			},
		}
	}
	res := p.CompileBatch(ctx, reqs)
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("item %d: nil error after mid-batch cancel", i)
		}
		if r.Func != nil && m.Installed(r.Func) {
			t.Fatalf("item %d installed despite cancel", i)
		}
	}
	if got := m.CodeBytesResident(); got != resident {
		t.Fatalf("resident code %d after canceled batch, want %d", got, resident)
	}
	if got := len(m.FuncSpans()); got != spans {
		t.Fatalf("span count %d after canceled batch, want %d", got, spans)
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

func TestSubmitAsyncAndCloseWaits(t *testing.T) {
	_, p := newPool(t, 2)
	var done atomic.Int32
	for b := 0; b < 3; b++ {
		reqs := []batch.Request{synReq(int32(b)), synReq(int32(b + 100))}
		err := p.Submit(context.Background(), reqs, func(res []batch.Result) {
			for _, r := range res {
				if r.Err != nil {
					t.Errorf("submit item: %v", r.Err)
				}
			}
			done.Add(1)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	p.Close() // must wait for all accepted submits and their callbacks
	if got := done.Load(); got != 3 {
		t.Fatalf("%d callbacks ran by Close return, want 3", got)
	}
	if err := p.Submit(context.Background(), []batch.Request{synReq(9)}, nil); !errors.Is(err, batch.ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	res := p.CompileBatch(context.Background(), []batch.Request{synReq(9)})
	if !errors.Is(res[0].Err, batch.ErrClosed) {
		t.Fatalf("CompileBatch after Close = %v, want ErrClosed", res[0].Err)
	}
}

func TestPoolTelemetry(t *testing.T) {
	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	_, p := newPool(t, 2)
	reg := telemetry.NewRegistry()
	p.RegisterTelemetry(reg, "t")
	res := p.CompileBatch(context.Background(), []batch.Request{synReq(1), synReq(2), synReq(3)})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
	}
	snap := reg.Snapshot()
	if got := snap["batch.t.batches"]; got != uint64(1) {
		t.Fatalf("batches = %v, want 1", got)
	}
	if got := snap["batch.t.items"]; got != uint64(3) {
		t.Fatalf("items = %v, want 3", got)
	}
	if _, ok := snap["batch.t.queue_depth"]; !ok {
		t.Fatal("queue_depth gauge missing")
	}
	if _, ok := snap["batch.t.compile_ns"]; !ok {
		t.Fatal("compile_ns histogram missing")
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
