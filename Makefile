# Artifact-style automation (the paper's artifact drives everything through
# make; these targets map onto the dune equivalents).

RESULTS ?= results

.PHONY: all build test check bench-smoke bench-isa bench-obs bench-net bench-chaos demo bench microbench tables figures csv clean

all: build

build:
	dune build

test:
	dune runtest

# fast health check: full test suite plus a tiny benchmark pass that
# exercises the SoA-vs-boxed cross-checks, the table2 fan-out and the
# tracing overhead contract (BENCH_obs.json)
check: build test bench-smoke

bench-smoke: build
	dune exec bench/microbench.exe -- --smoke --out _build/bench_smoke.json
	dune exec bench/main.exe -- table2 --limit 4
	dune exec bench/main.exe -- obs --limit 2

# cross-ISA matrix bench: a suite prefix compiled to every target ISA
# (per-target 2Q count / depth / synthesized duration / wall time),
# gated on the reconfigurable ISA beating every fixed target on 2Q
# count; writes BENCH_isa.json
bench-isa: build
	dune exec bench/main.exe -- isa

# observability bench alone: tracing overhead contract (<= 2%);
# writes BENCH_obs.json
bench-obs: build
	dune exec bench/main.exe -- obs

# socket transport load bench: 8 pipelined binary-frame clients over a
# unix socket vs direct in-process execution of the same warm-cache
# stream; writes BENCH_serve_net.json (gates: meets_1x, within_2x)
bench-net: build
	dune exec bench/main.exe -- serve-net

# chaos harness: replays the serve-net workload with seeded transport /
# worker / store faults armed and gates on availability (every request
# answered), >=3 worker crashes survived, deadline + shed + breaker
# enforcement, and bit-identical cache replay after a mid-write kill;
# writes BENCH_chaos.json. Never part of `bench` (it arms process-global
# fault state), always run explicitly.
bench-chaos: build
	dune exec bench/main.exe -- chaos

# full microbenchmark run; writes BENCH_numerics.json at the repo root
microbench: build
	dune exec bench/microbench.exe

# minutes: one category end to end (the artifact's `make demo`)
demo: build
	dune exec bin/reqisc_cli.exe -- compile alu_2 --mode full --route chain --pulses

# hours-equivalent full regeneration (the artifact's `make results`)
bench: build
	dune exec bench/main.exe -- all

tables: build
	dune exec bench/main.exe -- table1 table2 table3

figures: build
	dune exec bench/main.exe -- fig4 fig5 fig6 fig12 fig13 fig14 fig15 fig16

csv: build
	dune exec bench/main.exe -- all --csv-dir $(RESULTS)

clean:
	dune clean
	rm -rf $(RESULTS)
