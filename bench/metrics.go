package main

import "fmt"

// workloadNames is the fixed order of the six workloads.
var workloadNames = []string{"emit", "compile_install", "call_hot", "loop_long", "serve_hot", "serve_cold"}

func newWorkload(name string) workload {
	switch name {
	case "emit":
		return &emitWL{}
	case "compile_install":
		return &compileWL{}
	case "call_hot":
		return &execWL{}
	case "loop_long":
		return &execWL{long: true}
	case "serve_hot":
		return &serveWL{}
	case "serve_cold":
		return &serveWL{cold: true}
	}
	return nil
}

// e2eDef is one end-to-end metric: its unit, which direction is better,
// and the share of the reference value by which it may get worse before a
// change counts as a regression.  exact metrics are counts: any difference
// at all between two runs of one commit is a bug.
type e2eDef struct {
	name, unit, better string
	bound              float64
	exact              bool
}

// suiteE2E is the per-workload view `go run ./bench` prints and -aa
// gates: each workload's headline under its own name.
var suiteE2E = []e2eDef{
	{"setup_s", "s", "lower", 0.25, false},
	{"emit_ns_per_insn", "ns", "lower", 0.10, false},
	{"emit_alloc_bytes_per_insn", "B", "lower", 0.02, false},
	{"code_bytes_per_insn", "B", "lower", 0, true},
	{"cold_us_per_func", "us", "lower", 0.10, false},
	{"cold_alloc_bytes_per_func", "B", "lower", 0.05, false},
	{"code_bytes_per_func", "B", "lower", 0, true},
	{"calls_per_s", "1/s", "higher", 0.10, false},
	{"sim_insns_per_s", "1/s", "higher", 0.10, false},
	{"sim_cycles_per_call", "cycles", "lower", 0, true},
	{"goodput_per_s", "1/s", "higher", 0.10, false},
	{"alloc_bytes_per_req", "B", "lower", 0.05, false},
	{"sim_insns_per_req", "count", "lower", 0, true},
	{"fail_share", "share", "lower", 0, true},
	{"ref_ns_per_op", "ns", "lower", 0.25, false},
}

func suiteDef(name string) (e2eDef, bool) {
	for _, d := range suiteE2E {
		if d.name == name {
			return d, true
		}
	}
	return e2eDef{}, false
}

// driverE2E is the same measurements under the three names every workload
// can report, which is what BENCHMARK.json's contract needs: one run
// prints every end-to-end metric, and none may read 0.
//
//	ref_ns_per_op         the headline as host nanoseconds per unit of
//	                      work — per generated instruction (emit), per
//	                      program (compile_install), per call (call_hot),
//	                      per simulated instruction (loop_long), per
//	                      correct response (serve_*) — scaled to the
//	                      reference machine speed (harness.go, refKernel)
//	codegen_count_per_op  the exact count: code bytes per instruction
//	                      (emit) or per program (compile_install),
//	                      simulated cycles per call, simulated
//	                      instructions per request
//
// Allocation per op and the failure share are not here because they are 0
// on clean workloads (calls allocate nothing); allocation is a per-layer
// metric and failures are the run's attempted/failed counts.
var driverE2E = []e2eDef{
	{"setup_s", "s", "lower", 0.25, false},
	{"ref_ns_per_op", "ns", "lower", 0.25, false},
	{"codegen_count_per_op", "count", "lower", 0.000001, true},
}

// layerDef is one per-layer metric: which end-to-end metric it should
// move, on which workload.
type layerDef struct {
	name, unit, better string
	moves              string
}

// layerDefs is every per-layer metric a traced run prints, in print order.
func layerDefs() []layerDef {
	const (
		emit  = "emit_ns_per_insn on emit"
		cold  = "cold_us_per_func on compile_install; goodput_per_s on serve_cold"
		calls = "calls_per_s on call_hot"
		loop  = "sim_insns_per_s on loop_long"
		tier  = "sim_cycles_per_call on loop_long once tier 3 is the default path; diagnostic until then"
		hot   = "goodput_per_s on serve_hot"
		scold = "goodput_per_s on serve_cold"
	)
	ds := []layerDef{
		{"core.begin_ns_per_func", "ns", "lower", emit},
		{"core.getreg_ns_per_func", "ns", "lower", emit},
		{"core.body_ns_per_insn", "ns", "lower", emit},
		{"core.end_ns_per_func", "ns", "lower", emit},
		{"core.allocs_per_func", "count", "lower", "emit_alloc_bytes_per_insn on emit"},
	}
	for _, b := range backendNames {
		ds = append(ds,
			layerDef{b + ".emit_ns_per_insn", "ns", "lower", emit},
			layerDef{b + ".raw_encode_ns_per_insn", "ns", "lower", emit},
			layerDef{b + ".words_per_insn", "count", "lower", "code_bytes_per_insn on emit"})
	}
	ds = append(ds,
		layerDef{"core.bookkeeping_ns_per_insn", "ns", "lower", emit},
		layerDef{"core.getreg_putreg_ns", "ns", "lower", emit},
		layerDef{"core.label_bind_ns", "ns", "lower", emit},
		layerDef{"dcg.ns_per_insn", "ns", "lower", "baseline row; moves nothing"},
		layerDef{"dcg.vs_core_ratio", "ratio", "higher", "baseline row (paper: about 35x)"},

		layerDef{"jit.compile_us_per_func", "us", "lower", cold},
		layerDef{"tinyc.parse_us_per_func", "us", "lower", cold},
		layerDef{"tinyc.compile_us_per_func", "us", "lower", cold},
		layerDef{"vasm.assemble_us_per_func", "us", "lower", cold},
		layerDef{"core.install_us_per_func", "us", "lower", cold},
		layerDef{"core.uninstall_us_per_func", "us", "lower", cold},
		layerDef{"core.first_call_us", "us", "lower", cold},
		layerDef{"verify.us_per_func", "us", "lower", cold},
		layerDef{"verify.ns_per_word", "ns", "lower", cold},
		layerDef{"verify.us_per_func_by_toggle", "us", "lower", cold},
		layerDef{"exec.predecode_us_per_func", "us", "lower", cold},
		layerDef{"codecache.hit_ns", "ns", "lower", hot},
		layerDef{"codecache.miss_compile_us", "us", "lower", cold},
		layerDef{"batch.funcs_per_s", "1/s", "higher", cold},
		layerDef{"batch.vs_serial_ratio", "ratio", "higher", cold},
		layerDef{"batch.workers", "count", "higher", "recorded so the ratio is not read as parallel speed-up"},
	)
	for _, b := range backendNames {
		ds = append(ds,
			layerDef{b + ".threaded_ns_per_sim_insn", "ns", "lower", loop},
			layerDef{b + ".switch_ns_per_sim_insn", "ns", "lower", "oracle engine; moves nothing"},
			layerDef{b + ".sim_insns_per_call", "count", "lower", "sim_cycles_per_call on call_hot"})
	}
	ds = append(ds,
		layerDef{"core.call_fixed_ns", "ns", "lower", calls + " (and nothing on loop_long)"},
		layerDef{"core.call_fixed_share_call_hot", "share", "lower", calls},
		layerDef{"core.call_fixed_share_loop_long", "share", "lower", loop},
		layerDef{"exec.threaded_vs_switch_ratio", "ratio", "higher", loop},
		layerDef{"jit.interp_ns_per_call", "ns", "lower", "tier 1; moves nothing here"},
		layerDef{"jit.adaptive_call_ns", "ns", "lower", calls},
		layerDef{"telemetry.call_ns_delta", "ns", "lower", calls + " when telemetry is on"},
		layerDef{"trace.call_ns_delta", "ns", "lower", calls + " when trace is on"},
	)
	for _, b := range backendNames {
		ds = append(ds,
			layerDef{b + ".loop.sim_insns_per_call", "count", "lower", "sim_cycles_per_call on loop_long"},
			layerDef{b + ".loop.ns_per_sim_insn", "ns", "lower", loop})
	}
	ds = append(ds,
		layerDef{"jit.tier2_cycles_per_call", "cycles", "lower", tier},
		layerDef{"superblock.cycles_per_call", "cycles", "lower", tier},
		layerDef{"superblock.formed", "count", "higher", tier},
		layerDef{"superblock.installed", "count", "higher", tier},
		layerDef{"superblock.side_exits", "count", "lower", tier},
	)
	for _, s := range []struct{ prefix, moves string }{{"server.", hot}, {"server.cold.", scold}} {
		for _, m := range []struct{ name, unit, better string }{
			{"rtt_p50_us", "us", "lower"}, {"rtt_samples", "count", "higher"}, {"rtt_p99_us", "us", "lower"},
			{"exec_wall_us_p50", "us", "lower"}, {"handler_tcp_us_p50", "us", "lower"}, {"handler_us_p50", "us", "lower"},
			{"http_stack_us_p50", "us", "lower"}, {"overhead_us_p50", "us", "lower"}, {"direct_call_us_p50", "us", "lower"},
			{"exec_share_of_rtt", "share", "higher"}, {"compile_share_of_rtt", "share", "higher"}, {"miss_path_share_of_rtt", "share", "higher"},
			{"cached_share", "share", "higher"}, {"cache_hit_share", "share", "higher"},
			{"compiles", "count", "lower"}, {"rejected", "count", "lower"},
		} {
			ds = append(ds, layerDef{s.prefix + m.name, m.unit, m.better, s.moves})
		}
	}
	ds = append(ds,
		layerDef{"flightrec.rtt_us_delta", "us", "lower", hot + " when the flight recorder is on"},
		layerDef{"server.durable_ack_us_p50", "us", "lower", "durable serving; moves nothing here"},
	)
	for _, w := range workloadNames {
		ds = append(ds,
			layerDef{"alloc_bytes_per_op." + w, "B", "lower", "allocation per unit of work on " + w},
			layerDef{"bench.trace_overhead_share." + w, "share", "lower", "cost of the traced pass; moves nothing"})
		for _, l := range newWorkload(w).shareLayers() {
			ds = append(ds, layerDef{fmt.Sprintf("share.%s.%s", w, l), "share", "lower", "share of blocking time on " + w})
		}
	}
	return ds
}
