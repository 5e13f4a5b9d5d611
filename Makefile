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
	internal/superblock internal/core internal/server
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
	go run ./cmd/vcoded -addr :8753 -snapshot vcoded.snap

# Mixed-tenant server soak: an in-process vcoded with deterministic fault
# injection, every failure must come back typed, zero panics tolerated.
soak-server:
	go test -race -count=1 -run TestServeSoak -v ./internal/server

# Crash/recovery soak: SIGKILL a real journaled vcoded child
# mid-checkpoint, over and over, under injected fsync/write faults and
# bit-flipped journal tails.  Every durably-acknowledged key must come
# back correct after each restart; cycles alternate shard counts so the
# resharding restore path runs too.  The child is the test binary itself,
# so it is race-instrumented as well.  Then a checkpoint's compaction is
# failed at each of its steps and the acknowledged set recovered.
crash-soak:
	go test -race -count=1 -run TestCrashSoak -v ./cmd/vcoded
	go test -race -count=1 -run TestCompactionKilledAtEachStep -v ./internal/server

test:
	go test ./...

# The ports' Loop calls nothing: every call in it to a register or
# operand helper, a branch condition or exec.Bubble must be one the
# compiler reports inlined at its line and column (go build -gcflags=-m),
# or a loop trip pays a call.  mips' and alpha's cond cost 78 of Go's
# inline budget of 80.
INLINED = cond|tru|trs|tr|twr|topnd|topnd2|taddr|Bubble
inline:
	@go build -gcflags=-m ./internal/mips ./internal/sparc ./internal/alpha 2>&1 | \
	awk 'FNR == NR { if (match($$0, /inlining call to (\(\*CPU\)|exec)\.($(INLINED))$$/)) { split($$1, at, ":"); n = split($$0, w, "."); done[at[1] ":" at[2] ":" at[3] ":" w[n]] = 1 }; next } \
		/^func \(c \*CPU\) Loop\(/ { loop = 1 } \
		loop { rest = $$0; off = 0; \
			while (match(rest, /(c|exec)\.($(INLINED))\(/)) { \
				name = substr(rest, RSTART, RLENGTH - 1); sub(/^(c|exec)\./, "", name); col = off + RSTART + RLENGTH - 1; calls++; \
				if (!((FILENAME ":" FNR ":" col ":" name) in done)) { print FILENAME ":" FNR ":" col ": " name " is not inlined"; bad = 1 } \
				off = col; rest = substr(rest, RSTART + RLENGTH) } } \
		loop && /^}/ { loop = 0 } \
		END { if (!calls) { print "no helper call found in a Loop"; bad = 1 } else if (!bad) print calls " helper calls in the ports'"'"' Loops, all inlined"; exit bad }' \
		- internal/mips/threaded.go internal/sparc/threaded.go internal/alpha/threaded.go

# Non-test Go lines per package and in total.  ROADMAP aim 2 expects the
# per-ISA packages to go down as descriptions are merged; CI prints this
# so every log carries the number.  The test-only harness packages (only
# tests import them) are in the total, and summed on a line of their own.
HARNESS_PKGS = internal/regtest internal/isatest internal/exec/diff internal/codecache/cachetest
loc:
	@go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		printf '%6d  %s\n' $$(find $$dir -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$pkg; \
	done
	@printf '%6d  harness (%s)\n' $$(for d in $(HARNESS_PKGS); do find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go'; done | xargs cat | wc -l) '$(HARNESS_PKGS)'
	@printf '%6d  total\n' $$(find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)

# The documents that describe the tree (README, DESIGN, the verify skill)
# name only internal/, cmd/ and examples/ paths, make targets and tests it
# has; the records (CHANGES, EXPERIMENTS, ROADMAP, bench/README.md) are
# exempt.  go test ./... runs it too.
doccheck:
	go test -count=1 -run TestDocsNameWhatExists .

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

# One resident /v1/exec per iteration through the server's handler (no
# TCP): ns, bytes and allocations per hit.  CI pins the allocations with
# TestHitPathAllocBudget; the repository's benchmark (go run ./bench,
# workload serve_hot) is what a performance claim is judged by.
bench-hit:
	go test -run '^$$' -bench BenchmarkServeHit -benchtime 200000x -count 5 ./internal/server

# The warm call in isolation: eight resident 13-instruction leaves called in
# rotation through CallWithStats on each backend — ns and allocations per
# call — once per recorder setting (off, telemetry, trace, both), so what
# recording adds to a warm call is a row of its own.  CI pins the
# allocations of every row with TestWarmCallZeroAlloc; the repository's
# benchmark (go run ./bench, workload call_hot) is what a performance claim
# is judged by.
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
# backend, on three loops: long-run, almost all straight-line run;
# branch-dense, where no run is longer than one instruction, so what it
# shows is the per-instruction path and the branch fold on their own; and
# load-led, shaped like the benchmark's loop_long — a run a load opens,
# closed by a counted back-edge with a nop slot, so one trip is one run and
# one folded branch.  CI holds the run path and the fold to the switch
# engine with TestDifferentialRuns and TestDifferentialFold; the
# repository's benchmark (go run ./bench, workload loop_long) is what a
# performance claim is judged by.
bench-loop:
	go test -run '^$$' -bench BenchmarkLoopDispatch -benchtime 2000x -count 5 ./internal/exec/diff

.PHONY: verify fuzz-smoke soak run-server soak-server crash-soak test inline loc doccheck orphans bench bench-miss bench-hit bench-call bench-emit bench-cold bench-loop
