package regtest

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// buildAdd compiles "f(x) = x + k" for a target.
func buildAdd(t *testing.T, tg Target, k int64) *core.Func {
	t.Helper()
	a := core.NewAsm(tg.Backend)
	args, err := a.BeginTypes([]core.Type{core.TypeI}, core.Leaf)
	if err != nil {
		t.Fatal(err)
	}
	a.Addii(args[0], args[0], k)
	a.Reti(args[0])
	fn, err := a.End()
	if err != nil {
		t.Fatal(err)
	}
	return fn
}

// TestUninstallFreesAndReuses pins the per-function reclamation path on
// every target: Uninstall returns the code region, a same-size install
// reuses the hole, and surviving functions keep working.
func TestUninstallFreesAndReuses(t *testing.T) {
	for _, tg := range Targets() {
		tg := tg
		t.Run(tg.Name, func(t *testing.T) {
			m := tg.NewMachine()
			f1, f2, f3 := buildAdd(t, tg, 1), buildAdd(t, tg, 2), buildAdd(t, tg, 3)
			for _, f := range []*core.Func{f1, f2} {
				if err := m.Install(f); err != nil {
					t.Fatal(err)
				}
			}
			two := m.ArenaStats().CodeBytesResident
			addr1 := f1.Addr()

			if err := m.Uninstall(f1); err != nil {
				t.Fatal(err)
			}
			if m.Installed(f1) || f1.Installed() {
				t.Error("f1 still reports installed after Uninstall")
			}
			if !m.Installed(f2) {
				t.Error("f2 lost by f1's Uninstall")
			}
			if r := m.ArenaStats().CodeBytesResident; r >= two {
				t.Errorf("resident %d did not shrink from %d", r, two)
			}
			if err := m.Uninstall(f1); err != nil || !m.Installed(f2) {
				t.Errorf("second Uninstall of f1: %v, f2 resident %v; want a no-op", err, m.Installed(f2))
			}

			// The freed hole is reused by a same-size install.
			if err := m.Install(f3); err != nil {
				t.Fatal(err)
			}
			if f3.Addr() != addr1 {
				t.Errorf("freed region not reused: f3 at %#x, hole at %#x", f3.Addr(), addr1)
			}
			if r := m.ArenaStats().CodeBytesResident; r != two {
				t.Errorf("resident %d after refill, want %d", r, two)
			}
			for _, c := range []struct {
				f    *core.Func
				want int64
			}{{f2, 12}, {f3, 13}} {
				got, err := m.Call(c.f, core.I(10))
				if err != nil {
					t.Fatal(err)
				}
				if got.Int() != c.want {
					t.Errorf("%s(10) = %d, want %d", c.f.Name, got.Int(), c.want)
				}
			}

			// An uninstalled function is re-installable and correct.
			if err := m.Install(f1); err != nil {
				t.Fatal(err)
			}
			got, err := m.Call(f1, core.I(10))
			if err != nil {
				t.Fatal(err)
			}
			if got.Int() != 11 {
				t.Errorf("reinstalled f1(10) = %d, want 11", got.Int())
			}
		})
	}
}

// TestDoubleInstallMutated is the regression test for the silent-no-op
// hazard: re-installing an installed function is fine while its code is
// unchanged, and an explicit error once the code was mutated.
func TestDoubleInstallMutated(t *testing.T) {
	tg := Targets()[0]
	m := tg.NewMachine()
	f := buildAdd(t, tg, 5)
	if err := m.Install(f); err != nil {
		t.Fatal(err)
	}
	if err := m.Install(f); err != nil {
		t.Errorf("unmodified re-Install errored: %v", err)
	}
	f.Words[len(f.Words)-1] ^= 1
	if err := m.Install(f); err == nil || !strings.Contains(err.Error(), "mutated") {
		t.Errorf("mutated re-Install: err = %v, want mutation error", err)
	}
	// Uninstall clears the fingerprint; the rebuilt words install cleanly.
	f.Words[len(f.Words)-1] ^= 1
	if err := m.Uninstall(f); err != nil {
		t.Fatal(err)
	}
	if err := m.Install(f); err != nil {
		t.Errorf("reinstall after Uninstall: %v", err)
	}
}

// TestInstallForeignMachine: a function installed on one machine is
// rejected, not silently accepted, by another.
func TestInstallForeignMachine(t *testing.T) {
	tg := Targets()[0]
	m1, m2 := tg.NewMachine(), tg.NewMachine()
	f := buildAdd(t, tg, 7)
	if err := m1.Install(f); err != nil {
		t.Fatal(err)
	}
	if m2.Installed(f) {
		t.Error("m2 claims a function installed on m1")
	}
	if err := m2.Install(f); err == nil {
		t.Error("installing on a second machine should error while installed on the first")
	}
	if err := m2.Uninstall(f); err == nil {
		t.Error("uninstalling from the wrong machine should error")
	}
	// Moving a function between machines works via Uninstall.
	if err := m1.Uninstall(f); err != nil {
		t.Fatal(err)
	}
	if err := m2.Install(f); err != nil {
		t.Fatal(err)
	}
	got, err := m2.Call(f, core.I(1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int() != 8 {
		t.Errorf("migrated f(1) = %d, want 8", got.Int())
	}
}
