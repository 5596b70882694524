#!/bin/sh
# Build the benchmark from this checkout's sources, then run it.
#
#   sh benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   sh benchmark/run.sh agree DIR_A DIR_B
#
# Run from the root of the repository.  Build output goes to stderr, so
# standard output carries only the benchmark's own lines.  The dune cache
# is disabled to keep every read and write inside the checkout.
set -eu
dune build --root . --cache=disabled --display=quiet ./benchmark/bin/main.exe 1>&2
exec ./_build/default/benchmark/bin/main.exe "$@"
