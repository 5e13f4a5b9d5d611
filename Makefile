# The CI entry point (.github/workflows/ci.yml runs the same steps).  The
# fault, serve and crash soaks are tests, so `go test -race` runs them.
verify:
	go build ./...
	go vet ./...
	go test -race ./...
	$(MAKE) fuzz-smoke FUZZTIME=10s

# Packages with a single Fuzz* target each, so -fuzz=Fuzz is unambiguous.
FUZZ_PKGS = internal/vasm internal/tinyc internal/dpf internal/spec \
	internal/mips internal/sparc internal/alpha internal/exec/diff \
	internal/superblock internal/core
FUZZTIME ?= 10s

fuzz-smoke:
	@for pkg in $(FUZZ_PKGS); do \
		echo "fuzz $$pkg ($(FUZZTIME))"; \
		go test -run '^$$' -fuzz Fuzz -fuzztime $(FUZZTIME) ./$$pkg || exit 1; \
	done

# The soaks on their own, under the race detector; their sizes and seeds
# are constants in the tests (a tenth under -short).  soak: 30,000 mixed
# compile/execute calls under fault injection on all three targets.
soak:
	go test -race -count=1 -run TestFaultSoak -v ./internal/faultinject

# The vcoded codegen server, warm-cache snapshot on, lifecycle tracing
# served at /trace.  curl examples in README.md.
run-server:
	go run ./cmd/vcoded -addr :8753 -snapshot vcoded.snap -trace

# Mixed-tenant server soak: an in-process vcoded with deterministic fault
# injection, every failure must come back typed, zero panics tolerated.
soak-server:
	go test -race -count=1 -run TestServeSoak -v ./internal/server

# Crash/recovery soak: SIGKILL a real journaled vcoded child
# mid-checkpoint, over and over, under injected fsync/write faults and
# bit-flipped journal tails.  Every durably-acknowledged key must come
# back correct after each restart; cycles alternate shard counts so the
# resharding restore path runs too.  The child is the test binary itself,
# so it is race-instrumented as well.
crash-soak:
	go test -race -count=1 -run TestCrashSoak -v ./cmd/vcoded

test:
	go test ./...

# Non-test Go lines per package and in total.  ROADMAP aim 2 expects the
# per-ISA packages to go down as descriptions are merged; CI prints this
# so every log carries the number.
loc:
	@go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		printf '%6d  %s\n' $$(find $$dir -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$pkg; \
	done
	@printf '%6d  total\n' $$(find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)

# internal/ packages that no non-test code in the module imports: test
# harnesses belong here, anything else is a candidate for deletion
# (ROADMAP item 7).  Print-only, like loc.
orphans:
	@imported=$$(go list -f '{{join .Imports "\n"}}' ./...); \
	for pkg in $$(go list ./internal/...); do \
		echo "$$imported" | grep -qx "$$pkg" || echo "$$pkg"; \
	done

bench:
	go test -bench . -benchtime 1s .

# One cold /v1/exec per iteration through the server's handler (no TCP):
# ns, bytes and allocations per miss.  CI pins the bytes with
# TestMissPathAllocBudget; the repository's benchmark (go run ./bench,
# workload serve_cold) is what a performance claim is judged by.
bench-miss:
	go test -run '^$$' -bench BenchmarkServeMiss -benchtime 20000x -count 5 ./internal/server

# The warm call in isolation: eight resident 13-instruction leaves called in
# rotation through CallWithStats on each backend — ns and allocations per
# call.  CI pins the allocations with TestWarmCallZeroAlloc; the
# repository's benchmark (go run ./bench, workload call_hot) is what a
# performance claim is judged by.
bench-call:
	go test -run '^$$' -bench BenchmarkWarmCall -benchtime 2000000x -count 5 ./internal/core

# Emission in isolation: Begin..End of a 1,000-instruction mix through the
# generic front doors on a reused assembler, per backend — ns per generated
# instruction and allocations per function.  CI pins the allocations with
# TestEmitAllocBudget and the rejections with TestFrontDoorErrors; the
# repository's benchmark (go run ./bench, workload emit) is what a
# performance claim is judged by.  Each backend also runs the function made
# of one kind of instruction (alu, alui, mem: the template path; branch:
# label table, fixup and PatchBranch, the interface path), so the next gap
# is a row and not a remainder.
bench-emit:
	go test -run '^$$' -bench BenchmarkEmit -count 5 ./internal/core

# The cold path in isolation, per front end and backend: a corpus-sized
# program from source (or bytecode) to resident code and back out — front
# end, Install, Uninstall — in ns, bytes and allocations per program and ns
# per generated word.  CI pins the allocations with TestColdPathAllocBudget
# and the generated words and refusals with the goldens; the repository's
# benchmark (go run ./bench, workload compile_install) is what a
# performance claim is judged by.
bench-cold:
	go test -run '^$$' -bench BenchmarkColdPath -benchtime 20000x -count 3 \
		./internal/jit ./internal/tinyc ./internal/vasm

# Dispatch in isolation: the threaded engine per simulated instruction, per
# backend, on a loop that is almost all straight-line run and on a
# branch-dense one where no run is longer than one instruction (the
# per-instruction path on its own).  CI holds the run path to the switch
# engine with TestDifferentialRuns; the repository's benchmark (go run
# ./bench, workload loop_long) is what a performance claim is judged by.
bench-loop:
	go test -run '^$$' -bench BenchmarkLoopDispatch -benchtime 2000x -count 5 ./internal/exec/diff

.PHONY: verify fuzz-smoke soak run-server soak-server crash-soak test loc orphans bench bench-miss bench-call bench-emit bench-cold bench-loop
