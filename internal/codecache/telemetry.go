package codecache

import "repro/internal/telemetry"

// RegisterTelemetry exports the cache's counters through reg as derived
// gauges named "codecache.<name>.*" — the hit/miss/eviction/single-flight
// metrics the cache already keeps, re-read live at every snapshot, plus
// the derived hit_rate_pct and mean_compile_ns gauges.
func (c *Cache) RegisterTelemetry(reg *telemetry.Registry, name string) {
	prefix := "codecache." + name + "."
	u := func(metric string, load func() uint64) {
		reg.GaugeFunc(prefix+metric, func() float64 { return float64(load()) })
	}
	u("hits", c.hits.Load)
	u("misses", c.misses.Load)
	u("coalesced", c.coalesced.Load)
	u("compiles", c.compiles.Load)
	u("compile_errors", c.compileErrors.Load)
	u("compile_panics", c.compilePanics.Load)
	u("compile_ns_total", c.compileNanos.Load)
	u("evictions", c.evictions.Load)
	reg.GaugeFunc(prefix+"entries", func() float64 { return float64(c.Len()) })
	reg.GaugeFunc(prefix+"code_bytes", func() float64 { return float64(c.Snapshot().CodeBytes) })
	reg.GaugeFunc(prefix+"hit_rate_pct", func() float64 {
		return hitRatePct(c.hits.Load(), c.misses.Load())
	})
	reg.GaugeFunc(prefix+"mean_compile_ns", func() float64 {
		return meanCompileNS(c.compileNanos.Load(), c.compiles.Load()+c.compileErrors.Load())
	})
}

func hitRatePct(hits, misses uint64) float64 {
	if total := hits + misses; total > 0 {
		return 100 * float64(hits) / float64(total)
	}
	return 0
}

func meanCompileNS(nanos, compiles uint64) float64 {
	if compiles > 0 {
		return float64(nanos / compiles)
	}
	return 0
}
