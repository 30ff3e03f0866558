GO ?= go

.PHONY: verify build vet fmtcheck lint test bench pairs identity microbench

# Tier-1 gate: build everything, vet, check formatting, lint (the
# determinism invariants, and no code or option nothing runs), and run the
# full test suite with the race detector. CI and pre-commit both run this
# target. The race detector is
# ~10x slower than a plain run and the experiment harnesses are
# end-to-end simulations, so the suite needs more than go test's default
# 10-minute budget on small machines.
verify: build vet fmtcheck lint
	$(GO) test -race -timeout 45m ./...

# aqualint machine-checks the simulator's determinism invariants
# (DESIGN.md §8): no wall-clock time, no global randomness, no
# order-dependent map iteration, no silently dropped errors. Its unreached
# and onevalue checks fail on an internal package, identifier or field
# nothing reachable from cmd/*, bench or examples/* uses, on a field of an
# exported untagged struct that non-test code sets to one value only, and
# on an allow for either check that suppresses nothing.
lint:
	$(GO) run ./cmd/aqualint ./...

fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# bench runs the repo's benchmark (BENCHMARK.json, bench/README.md): five
# seeded workloads, results in bench/out/results.json; compare two such
# files with `go run ./bench -compare old.json new.json`.
bench:
	$(GO) run ./bench

# pairs is house rule 1's evidence for a performance claim (ROADMAP.md): N
# alternating parent/change runs of one workload on one seed, then a
# -compare per pair. It builds ./bench once from PARENT's committed files
# (a `git archive` into a temp dir, so a killed run leaves nothing registered
# in .git) and once from the working tree, runs the two binaries in ABBA
# order, and leaves each run in bench/out/pairs/{parent,change}.<i>/.
#
#	make pairs PARENT=<rev> WORKLOAD=fleet-steady SEED=7 N=10
PARENT ?= HEAD
WORKLOAD ?= fleet-steady
SEED ?= 7
N ?= 10
pairs:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; trap 'exit 130' INT TERM; \
	mkdir "$$tmp/src"; git archive $(PARENT) | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/parent" ./bench); \
	$(GO) build -o "$$tmp/change" ./bench; \
	out=bench/out/pairs; rm -rf $$out; mkdir -p $$out; \
	i=1; while [ $$i -le $(N) ]; do \
		order="parent change"; [ $$((i % 2)) -eq 1 ] || order="change parent"; \
		for side in $$order; do \
			echo "pair $$i: $$side"; \
			"$$tmp/$$side" -workload $(WORKLOAD) -seed $(SEED) -out $$out/$$side.$$i > /dev/null; \
		done; \
		i=$$((i + 1)); \
	done; \
	rc=0; i=1; while [ $$i -le $(N) ]; do \
		echo "== pair $$i"; \
		$(GO) run ./bench -compare $$out/parent.$$i/$(WORKLOAD).json $$out/change.$$i/$(WORKLOAD).json || rc=1; \
		i=$$((i + 1)); \
	done; exit $$rc

# identity is the byte-identity check (ROADMAP house rule 3). It builds
# cmd/aquatope, cmd/aquabench and examples/* from the working tree and runs
# every registry system through aquatope, plain and under -chaos mixed, five
# quick-scale aquabench experiments, and the four examples, into a temp dir
# removed on exit. Between them these runs reach every overload, retry, pool
# and scheduler option. It then compares one SHA-256 per stdout, span dump
# and metric dump with $(MANIFEST): `same` or `DIFFERS` per file, and exit 1
# on a moved, missing or extra output. The manifest's first line is the
# `go version` that cut it, and another toolchain is refused: a compiler or
# math library release may move a float's last bit. A change that moves
# outputs on purpose rewrites the manifest with `UPDATE_GOLDEN=1 make
# identity`, so its manifest diff lists them. The kill-restore leg is
# cmd/aquatope's TestRestoreCommittedCrash.
MANIFEST := testdata/identity.sha256
identity:
	@set -e; export LC_ALL=C; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; trap 'exit 130' INT TERM; \
	cut=$$(head -n 1 $(MANIFEST) 2> /dev/null || true); go="# $$($(GO) version)"; \
	[ -n "$(UPDATE_GOLDEN)" ] || [ "$$cut" = "$$go" ] || { \
		echo "identity: $(MANIFEST) was cut by $${cut#\# go version }, this toolchain is $${go#\# go version }"; exit 1; }; \
	$(GO) build -o "$$tmp/" ./cmd/aquatope ./cmd/aquabench ./examples/...; out="$$tmp/out"; mkdir "$$out"; \
	run() { f=$$1 bin=$$2; shift 2; echo "identity: $$f"; \
		"$$tmp/$$bin" "$$@" > "$$out/$$f.stdout" 2> "$$tmp/stderr" || { cat "$$tmp/stderr"; exit 1; }; }; \
	dumps() { echo "-trace-out $$out/$$1.spans.jsonl -metrics-out $$out/$$1.metrics.json"; }; \
	for sys in aquatope aqualite autoscale caerus icebreaker+clite jolteon keepalive naive; do \
		for chaos in none mixed; do \
			flags=""; [ $$chaos = none ] || flags="-chaos $$chaos"; f=aquatope.$$sys.$$chaos; \
			run $$f aquatope -app chain -minutes 240 -train 120 -budget 3 -seed 1 -system $$sys $$flags $$(dumps $$f); \
		done; \
	done; \
	for e in fig9 fig13 chaos overload arena; do run aquabench.$$e aquabench -scale quick -exp $$e $$(dumps aquabench.$$e); done; \
	for ex in examples/*/; do ex=$$(basename $$ex); run example.$$ex $$ex; done; \
	(echo "$$go"; cd "$$out" && sha256sum *) > "$$tmp/manifest"; \
	if [ -n "$(UPDATE_GOLDEN)" ]; then cp "$$tmp/manifest" $(MANIFEST); echo "identity: wrote $(MANIFEST)"; exit 0; fi; \
	awk 'FNR == 1 { next } NR == FNR { want[$$2] = $$1; order[++n] = $$2; next } \
		{ s = !($$2 in want) ? "EXTRA" : want[$$2] == $$1 ? "same" : "DIFFERS"; delete want[$$2]; \
		  printf "%-8s %s\n", s, $$2; if (s != "same") rc = 1 } \
		END { for (i = 1; i <= n; i++) if (order[i] in want) { printf "MISSING  %s\n", order[i]; rc = 1 }; exit rc }' \
		$(MANIFEST) "$$tmp/manifest"

microbench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...
