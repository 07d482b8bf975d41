# Developer entry points. `make ci` is the gate every change must
# pass: it builds everything, vets, checks formatting, runs the repo
# linter (cmd/repolint), and runs the full test suite under the race
# detector (the concurrent tree executor and the parallel naive pool
# are exercised heavily there). Each gate prints a one-line verdict;
# the first failing gate stops the run and names itself.

GO ?= go

.PHONY: ci build vet fmt lint test race short bench-exec bench-obs bench-eval bench-eqsat bench-prune server-smoke fleet-smoke fuzz-live

# gate runs one CI stage, echoing "ci: <name> ok" on success and
# "ci: FAIL at gate <name>" (then exiting nonzero) on failure, so a
# red run always ends by naming the gate that broke.
define gate
	@echo "ci: $(1)..."; if $(2); then echo "ci: $(1) ok"; else echo "ci: FAIL at gate $(1)"; exit 1; fi
endef

ci:
	$(call gate,build,$(GO) build ./...)
	$(call gate,vet,$(GO) vet ./...)
	$(call gate,fmt,$(MAKE) -s fmt)
	$(call gate,lint,$(GO) run ./cmd/repolint)
	$(call gate,fuzz,$(GO) test -run FuzzIncrementalEval ./internal/search/ && $(GO) test -run FuzzEqSat ./internal/eqsat/ && $(GO) test -run FuzzAbstractDomains ./internal/prog/analysis/absint/)
	$(call gate,eqsat-smoke,$(GO) test -run TestEqSatSmoke -count=1 ./internal/eqsat/)
	$(call gate,bench-prune,$(MAKE) -s bench-prune)
	$(call gate,bench-eval,$(MAKE) -s bench-eval)
	$(call gate,race,$(GO) test -race ./...)
	$(call gate,fleet-smoke,sh scripts/fleet_smoke.sh)
	@echo "ci: all gates passed (build vet fmt lint fuzz eqsat-smoke bench-prune bench-eval race fleet-smoke)"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$out"; exit 1; \
	fi

# lint runs the repository's own static checks: sync/atomic
# containment and nil-guarded obs hook access (see cmd/repolint).
lint:
	$(GO) run ./cmd/repolint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

short:
	$(GO) test -short ./...

# Print the concurrent executor's counters on a couple of benchmark
# problems (sequential-vs-concurrent wall clock, speculation, swaps,
# pool utilization).
bench-exec:
	$(GO) run ./cmd/bench -exp exec -problems 4 -budget 2000000

# Compare the bare search loop against the fully instrumented one
# (metrics registry + tracer attached). The acceptance bar for the
# observability layer is <= 2% overhead on ns/iter.
bench-obs:
	$(GO) test ./internal/search/ -run '^$$' -bench BenchmarkSearchLoop -benchtime 2s -count 3

# Compare the compiled plan engine against the legacy copy-based path
# on the standing benchmark problems (same seed, same trajectory) and
# write BENCH_eval.json. Every row is measured twice per arm; the bench
# refuses to write the report on any fingerprint divergence: between
# repeats (restarts, every run's move counters, final cost and final
# program, and the plan arm's eval-work counters), or between the
# legacy and plan arms (the same fields minus the work counters,
# which the legacy path does not keep). That is why it doubles as a
# ci gate. The acceptance bar is >= 3x geomean iterations/sec for the
# plan engine over the legacy path.
bench-eval:
	$(GO) run ./cmd/bench -exp eval -budget 2000000

# Compare stochastic size minimization, equality-saturation extraction,
# and their hybrid on both suites (superopt references + expression
# fixtures) and write BENCH_eqsat.json. Every row is computed twice;
# the bench refuses to write the report on any divergence.
bench-eqsat:
	$(GO) run ./cmd/bench -exp eqsat -budget 2000000 -problems 8

# Compare the plain search against the same seeded search with
# abstract-interpretation pruning (Options.Prune) on the expression
# fixtures and write BENCH_prune.json. The on arm runs with PruneVerify;
# the bench refuses to write the report on trajectory divergence, any
# unsound prune decision, or reduction on fewer than half the rows —
# which is why it doubles as a ci gate.
bench-prune:
	$(GO) run ./cmd/bench -exp prune -budget 2000000

# Boot synthd on an ephemeral port, submit a small SyGuS job through
# `synth -remote`, and assert the server returns a solution.
server-smoke:
	sh scripts/server_smoke.sh

# Boot a 1-coordinator / 2-worker fleet, solve through the
# coordinator, kill a worker mid-run, and assert the job fails over to
# the survivor (see internal/server/fleet).
fleet-smoke:
	sh scripts/fleet_smoke.sh

# Run every fuzz target live (go test -fuzz) for FUZZTIME each (default
# 30s). The ci fuzz gate only replays the seed corpora; this explores
# beyond them, so it stays out of `make ci`. A crasher is written to
# the package's testdata/fuzz/<Target>/ directory: commit it there as a
# regression seed, and the replay (plain `go test`) runs it forever.
FUZZTIME ?= 30s
FUZZ_TARGETS ?= \
	./internal/search:FuzzIncrementalEval \
	./internal/eqsat:FuzzEqSat \
	./internal/prog/analysis/absint:FuzzAbstractDomains \
	./internal/prog/analysis:FuzzCanonicalize \
	./internal/prog:FuzzParse \
	./internal/sygusif:FuzzParse \
	./internal/asm:FuzzParseText \
	./internal/superopt:FuzzParseProb

fuzz-live:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz-live: $$fn in $$pkg for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done; echo "fuzz-live: all targets ran $(FUZZTIME) without a crasher"
