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

# identity is the byte-identity check a refactor that changes no number
# owes. It builds cmd/aquatope and cmd/aquabench once from PARENT's
# committed files (a `git archive` into a temp dir, as pairs does) and once
# from the working tree. Each side runs every SYSTEMS name through aquatope
# with span and metric dumps, once plain and once under -chaos mixed, and
# every EXPS experiment through aquabench at quick scale with dumps. Then
# each output file is cmp'd against the other side's: any difference names
# the file and exits 1. Between them these runs reach every overload,
# retry, pool and scheduler option. Last comes the kill-restore leg: the
# parent binary records a stream, serves it uninterrupted, then serves it
# again with the scripted controller kill armed (exit 137, checkpoints
# left behind); the change binary restores from that crash directory, and
# its span and metric dumps must cmp equal to the parent's uninterrupted
# run. It fails whenever the config digest or the checkpoint format moves.
# A PR that documents drift fails this by design, so it is not part of
# verify or CI.
#
#	make identity PARENT=<rev>
SYSTEMS ?= aquatope aqualite autoscale caerus icebreaker+clite jolteon keepalive naive
EXPS ?= fig9 fig13 chaos overload arena
identity:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; trap 'exit 130' INT TERM; \
	mkdir "$$tmp/src" "$$tmp/parent" "$$tmp/change"; git archive $(PARENT) | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/parent/" ./cmd/aquatope ./cmd/aquabench); \
	$(GO) build -o "$$tmp/change/" ./cmd/aquatope ./cmd/aquabench; \
	for side in parent change; do \
		bin="$$tmp/$$side"; out="$$bin/out"; mkdir "$$out"; \
		for sys in $(SYSTEMS); do \
			for chaos in none mixed; do \
				flags=""; [ $$chaos = none ] || flags="-chaos $$chaos"; \
				f="$$out/aquatope.$$sys.$$chaos"; echo "$$side: aquatope -system $$sys $$flags"; \
				"$$bin/aquatope" -app chain -minutes 240 -train 120 -budget 3 -seed 1 -system $$sys $$flags \
					-trace-out $$f.spans.jsonl -metrics-out $$f.metrics.json > $$f.stdout 2> /dev/null; \
			done; \
		done; \
		for e in $(EXPS); do \
			f="$$out/aquabench.$$e"; echo "$$side: aquabench -exp $$e"; \
			"$$bin/aquabench" -scale quick -exp $$e \
				-trace-out $$f.spans.jsonl -metrics-out $$f.metrics.json > $$f.stdout 2> /dev/null; \
		done; \
		ls "$$out" > "$$bin/files"; \
	done; \
	rc=0; cmp -s "$$tmp/parent/files" "$$tmp/change/files" || { echo "identity: the two sides wrote different files"; rc=1; }; \
	for f in $$(cat "$$tmp/parent/files"); do \
		if cmp -s "$$tmp/parent/out/$$f" "$$tmp/change/out/$$f"; then echo "same     $$f"; \
		else echo "DIFFERS  $$f"; rc=1; fi; \
	done; \
	kr="$$tmp/kr"; mkdir "$$kr"; flags="-app chain -minutes 20 -train 5 -budget 2 -system keepalive -seed 3 -chaos kill-restore"; \
	echo "parent: aquatope -serve $$flags, uninterrupted and then killed"; \
	"$$tmp/parent/aquatope" -app chain -minutes 20 -seed 3 -emit-stream "$$kr/stream.jsonl" > /dev/null; \
	"$$tmp/parent/aquatope" -serve -stream "$$kr/stream.jsonl" -checkpoint-dir "$$kr/ref" $$flags -ignore-crash \
		-trace-out "$$kr/ref.spans.jsonl" -metrics-out "$$kr/ref.metrics.json" > /dev/null 2>&1; \
	code=0; "$$tmp/parent/aquatope" -serve -stream "$$kr/stream.jsonl" -checkpoint-dir "$$kr/ck" $$flags \
		-trace-out "$$kr/crash.spans.jsonl" -metrics-out "$$kr/crash.metrics.json" > /dev/null 2>&1 || code=$$?; \
	[ $$code -eq 137 ] || { echo "identity: the parent's killed serve run exited $$code, not 137"; exit 1; }; \
	echo "change: aquatope -serve -restore <the parent's crash directory>"; \
	"$$tmp/change/aquatope" -serve -stream "$$kr/stream.jsonl" -checkpoint-dir "$$kr/ck" -restore "$$kr/ck" $$flags \
		-trace-out "$$kr/restore.spans.jsonl" -metrics-out "$$kr/restore.metrics.json" > /dev/null || rc=1; \
	for f in spans.jsonl metrics.json; do \
		if cmp -s "$$kr/ref.$$f" "$$kr/restore.$$f"; then echo "same     kill-restore.$$f"; \
		else echo "DIFFERS  kill-restore.$$f"; rc=1; fi; \
	done; exit $$rc

microbench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...
