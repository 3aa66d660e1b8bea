# Convenience wrapper around dune; `make check` is the PR gate CI runs.

.PHONY: all build test check bench bench-json coverage trace profile-domains fabric tune clean

all: build

build:
	dune build

test:
	dune runtest

check: build test

bench:
	dune exec bin/autocfd_cli.exe -- tables all

bench-json:
	dune exec bin/autocfd_cli.exe -- bench baseline

# before/after loop-fission fused-kernel coverage of the bundled apps,
# then the regression gate against the committed COVERAGE.json manifest
coverage:
	dune exec bin/autocfd_cli.exe -- bench coverage

# profile the bundled example on 4 simulated ranks; load trace.json in
# https://ui.perfetto.dev or chrome://tracing
trace:
	dune exec bin/autocfd_cli.exe -- trace examples/heat2d.f --parts 2x2 \
	  --output trace.json --metrics metrics.json

# kernel-level profile of the real shared-memory Domains execution (one
# OCaml 5 domain per rank), with the >= 95% attribution gate armed
profile-domains:
	dune exec bin/autocfd_cli.exe -- profile examples/heat2d.f --parts 2x2 \
	  --engine domains --check

# the distributed-sweep chaos gate: master + 3 socket worker processes,
# one SIGKILLed mid-sweep; tables must stay byte-identical with >= 1
# requeue, and a worker-less master must degrade rather than hang
fabric:
	dune exec bin/autocfd_cli.exe -- bench fabric --check

# the auto-tuning gate: three byte-identical passes over the tune
# tables (serial/no-cache, parallel cold, parallel warm with 100%
# hits), winner must beat every hand-picked paper config, frontier
# must be Pareto-minimal
tune:
	dune exec bin/autocfd_cli.exe -- tune --check

clean:
	dune clean
