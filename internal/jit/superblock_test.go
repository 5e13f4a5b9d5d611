package jit

import (
	"sync"
	"testing"

	"repro/internal/codecache/cachetest"
	"repro/internal/mem"
	"repro/internal/profile"
)

// sbAdaptive runs body on each backend, on an Adaptive with an attached
// stride-1 edge profiler and the superblock tier enabled with small,
// test-friendly thresholds.  MIPS keeps the costed DEC5000 memory model
// these tests have always run on, where a bare host access to the side-exit
// counter races a running call's cache-penalty count; SPARC and Alpha run
// uncosted.
func sbAdaptive(t *testing.T, body func(t *testing.T, ad *Adaptive)) {
	for _, tgt := range []struct {
		name string
		conf mem.MachineConfig
	}{{"mips", mem.DEC5000}, {"sparc", mem.Uncosted}, {"alpha", mem.Uncosted}} {
		t.Run(tgt.name, func(t *testing.T) {
			m, err := NewMachineTarget(tgt.name, tgt.conf)
			if err != nil {
				t.Fatal(err)
			}
			ad := NewAdaptive(m, 3)
			ep := profile.NewEdgeProfiler(1)
			if err := ep.Attach(m.Core()); err != nil {
				t.Fatalf("attach edge profiler: %v", err)
			}
			ad.EnableSuperblocks(SuperblockConfig{
				Threshold:   8,
				Edges:       ep,
				DeoptFactor: 8,
				PollEvery:   2,
				Cooldown:    6,
			})
			body(t, ad)
		})
	}
}

// settle drains the background tier-3 formations.
func settle(ad *Adaptive) { ad.WaitPromotions() }

// callChecked runs f(x) and asserts the result, whatever tier served it.
func callChecked(t *testing.T, ad *Adaptive, f *Func, x, want int32) {
	t.Helper()
	got, _, err := ad.Call(f, x)
	if err != nil {
		t.Fatalf("%s(%d): %v", f.Name, x, err)
	}
	if got != want {
		t.Fatalf("%s(%d) = %d, want %d", f.Name, x, got, want)
	}
}

// TestSuperblockPromotes drives BiasedLoop hot with a stable bias and
// checks the function climbs all three tiers, with results identical on
// each.
func TestSuperblockPromotes(t *testing.T) {
	sbAdaptive(t, superblockPromotes)
}

func superblockPromotes(t *testing.T, ad *Adaptive) {
	f := BiasedLoop()
	for i := 0; i < 40; i++ {
		callChecked(t, ad, f, 10, 100)
		settle(ad)
	}
	if !ad.Compiled(f) {
		t.Fatal("function never reached tier 2")
	}
	if !ad.Superblocked(f) {
		t.Fatal("function never reached tier 3")
	}
	// Tier-3 results stay correct for both arms (cold arm runs through
	// the side exit into the unmodified cold copy).
	callChecked(t, ad, f, 10, 100)
	callChecked(t, ad, f, 90, 200)
}

// TestSuperblockDeoptAndRepromote flips the branch bias under an
// installed superblock: every iteration now leaves through the side exit,
// the poll detects exits outrunning calls, the tier-3 body is evicted (no
// stale predecoded body may survive — results must stay correct through
// demotion), the edge profile retrains, and the function re-promotes onto
// a superblock formed for the NEW bias.
func TestSuperblockDeoptAndRepromote(t *testing.T) {
	sbAdaptive(t, superblockDeoptAndRepromote)
}

func superblockDeoptAndRepromote(t *testing.T, ad *Adaptive) {
	f := BiasedLoop()

	// Phase 1: train x<50 until tier 3 lands.
	for i := 0; i < 40 && !ad.Superblocked(f); i++ {
		callChecked(t, ad, f, 10, 100)
		settle(ad)
	}
	if !ad.Superblocked(f) {
		t.Fatal("function never reached tier 3")
	}

	// Phase 2: flip the bias.  Each call exits the trace ~100 times; the
	// counter poll (every 2 calls) must demote quickly.
	deopted := false
	for i := 0; i < 30; i++ {
		callChecked(t, ad, f, 90, 200)
		if !ad.Superblocked(f) {
			deopted = true
			break
		}
	}
	if !deopted {
		t.Fatal("bias flip never de-optimized")
	}
	// Demoted execution is tier 2: still correct, for both arms.
	callChecked(t, ad, f, 90, 200)
	callChecked(t, ad, f, 10, 100)

	// Phase 3: keep the new bias hot; after the cooldown the retrained
	// profile is decisive the other way and tier 3 re-forms.  The old
	// body was uninstalled, so the reinstall must execute fresh code —
	// a stale predecoded body would produce phase-1 results here.
	repromoted := false
	for i := 0; i < 60; i++ {
		callChecked(t, ad, f, 90, 200)
		settle(ad)
		if ad.Superblocked(f) {
			repromoted = true
			break
		}
	}
	if !repromoted {
		t.Fatal("function never re-promoted after retraining")
	}
	callChecked(t, ad, f, 90, 200)
	callChecked(t, ad, f, 10, 100)
}

// TestSuperblockDeoptUnderConcurrentCalls flips the bias under four
// goroutines calling at once: one of them polls and deoptimises while the
// others may already hold the tier-3 body, which is ErrUnloaded to them and
// tier 2 serves the call.  No result is wrong, and afterwards the machine
// holds the cache's tier-2 entry and nothing else — the tier-3 body was a
// unit of one and its deopt returned it.
func TestSuperblockDeoptUnderConcurrentCalls(t *testing.T) {
	sbAdaptive(t, func(t *testing.T, ad *Adaptive) {
		base := ad.m.Core().ArenaStats()
		f := BiasedLoop()
		for i := 0; i < 40 && !ad.Superblocked(f); i++ {
			callChecked(t, ad, f, 10, 100)
			settle(ad)
		}
		if !ad.Superblocked(f) {
			t.Fatal("function never reached tier 3")
		}
		// No callers are running: stretch the cooldown so the deopt below is
		// final and the ledger is taken on a settled machine.
		cfg := *ad.sb
		cfg.Cooldown = 1 << 40
		ad.EnableSuperblocks(cfg)

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if got, _, err := ad.Call(f, 90); err != nil || got != 200 {
						t.Errorf("call %d across the flip: %d, %v; want 200", i, got, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		settle(ad)
		if ad.Superblocked(f) {
			t.Fatal("bias flip never de-optimized")
		}
		callChecked(t, ad, f, 10, 100)
		cachetest.Ledger(t, ad.Cache(), ad.m.Core(), base)
	})
}

// TestBlockHeatScopedToIdentity is the regression test for block-heat
// promotion reading heat by display name: two different functions sharing
// a name must not promote each other.  The cold twin here has the same
// name but different code; the hot one's backedge heat must not promote
// it.
func TestBlockHeatScopedToIdentity(t *testing.T) {
	m := NewMachine(mem.DEC5000)
	ad := NewAdaptive(m, 1<<30) // call counts never promote
	ad.BlockThreshold = 500

	hot := SumSquares()
	cold := FibIter()
	cold.Name = hot.Name // same display name, different content

	// Drive the hot function's block heat well past the threshold.
	for i := 0; i < 8; i++ {
		if _, _, err := ad.Call(hot, 200); err != nil {
			t.Fatal(err)
		}
	}
	if !ad.Compiled(hot) {
		t.Fatal("hot function should promote on block heat")
	}
	// One call of the same-named cold function: under the old
	// name-merged heat it promoted immediately; identity-scoped heat
	// keeps it interpreted.
	if _, _, err := ad.Call(cold, 5); err != nil {
		t.Fatal(err)
	}
	if ad.Compiled(cold) {
		t.Fatal("cold same-named function cross-promoted on the hot twin's block heat")
	}
}
