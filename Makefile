.PHONY: all build test bench bench-smoke check check-full clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe all

# Tiny-scale batching sweep (also asserts byte-identical rows across
# same-seed runs; exits nonzero on divergence).
bench-smoke:
	LABSTOR_SMOKE=1 dune exec bench/main.exe -- batching

# Full health check: build + all test suites + fault-injection smoke
# run (asserts deterministic fault traces). ~CI entry point.
check:
	@sh bin/check.sh

# Full-scale gates: every experiment at full size, each asserting its
# own acceptance criteria; fails on any nonzero exit.
check-full:
	dune build @all
	dune exec bench/main.exe -- all

clean:
	dune clean
