package jit

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// BenchmarkRun measures end-to-end call throughput (marshal + simulate +
// result) for the warm-cache hot path on both execution engines; the
// repository's benchmark measures the same thing per layer as call_hot's
// B.threaded_ns_per_sim_insn / B.switch_ns_per_sim_insn rows.
func BenchmarkRun(b *testing.B) {
	for _, backend := range []string{"mips", "sparc", "alpha"} {
		for _, engine := range []core.Engine{core.EngineSwitch, core.EngineThreaded} {
			b.Run(fmt.Sprintf("%s/%s", backend, engine), func(b *testing.B) {
				m, err := NewMachineTarget(backend, mem.Uncosted)
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Core().SetEngine(engine); err != nil {
					b.Fatal(err)
				}
				fn, err := m.Compile(Synthetic(1))
				if err != nil {
					b.Fatal(err)
				}
				if got, _, err := m.Run(fn, 10); err != nil || got != 395 {
					b.Fatalf("warmup: got %d, %v; want 395", got, err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := m.Run(fn, 10); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
