# Developer entry points. Every gate is defined once, in check.sh
# (`./check.sh` = all steps = `make check`, `./check.sh <step>` = one);
# the targets below that name a gate only call it.

.PHONY: check build test race lint lockgraph fuzz benchgate microbench crash chaos shardchaos replchaos explain traceguard perfguard runtimemetrics fmt

check:
	./check.sh

build:
	./check.sh build

test:
	go test ./...

race:
	./check.sh race

# histlint over the module; also regenerates the committed project-wide
# lock-acquisition graph (lockorder analyzer) as Graphviz DOT. Render
# with: dot -Tsvg lockgraph.dot -o lockgraph.svg
lint lockgraph:
	./check.sh histlint

fuzz:
	./check.sh fuzz

# The load harness's oracle gate: each of the four BENCHMARK.json
# workloads for 3 s on the real binaries. Full runs and comparisons:
# see benchmark/README.md.
benchgate:
	./check.sh benchgate

microbench:
	go test -bench=. -benchmem ./...

crash:
	./check.sh crash

chaos:
	./check.sh chaos

shardchaos:
	./check.sh shardchaos

replchaos:
	./check.sh replchaos

explain:
	./check.sh explain

traceguard:
	./check.sh traceguard

perfguard:
	./check.sh perfguard

# Smoke the runtime/contention collector: every histcube_runtime_* and
# histcube_lock_* series must render from a live registry.
runtimemetrics:
	go test -race -count=1 -v -run 'TestRuntimeMetrics|TestMutexContentionEvents' ./internal/obs/

fmt:
	gofmt -w .
