.PHONY: all build test lint lint-check lint-json lint-sarif lint-hotpath bench bench-json bench-check shard-check chaos chaos-cluster reproduce clean

all: build

build:
	dune build

# Unit/property tests plus the lazyctrl-lint static-analysis gate.
test:
	dune runtest

# Just the static analysis (also part of `make test`).
lint:
	dune build @lint

# Machine-readable lint report.  Written to _build/lint-report.json.
# --check makes the exit code track the "clean" field, so a failing tree
# fails the target while still leaving the report behind for upload.
lint-json:
	dune build bin/lazyctrl_lint.exe
	./_build/default/bin/lazyctrl_lint.exe --root . --json --check \
	  > _build/lint-report.json
	@echo "wrote _build/lint-report.json"

# SARIF 2.1.0 report for GitHub code scanning.  Same gating semantics as
# lint-json; the report is written either way.
lint-sarif:
	dune build bin/lazyctrl_lint.exe
	./_build/default/bin/lazyctrl_lint.exe --root . --format sarif --check \
	  > _build/lint-report.sarif
	@echo "wrote _build/lint-report.sarif"

# H00x hot-path cross-validation (DESIGN.md §10): measure every probe
# declared in lib/analysis/hotspec.ml with the bench hotpath targets,
# then judge the static verdict against the measured minor-words-per-op
# and the committed HOTPATH_budget.  The SARIF report comes first
# (non-gating, merged into code scanning by CI); the JSON report gates,
# but is written either way so a failing tree still leaves the artifact.
lint-hotpath:
	dune build bin/lazyctrl_lint.exe bench/main.exe
	./_build/default/bench/main.exe --quick hotpath \
	  --json _build/hotpath-measured.json
	./_build/default/bin/lazyctrl_lint.exe --root . --hotpath-report \
	  --measured _build/hotpath-measured.json --format sarif \
	  > _build/hotpath-report.sarif
	./_build/default/bin/lazyctrl_lint.exe --root . --hotpath-report \
	  --measured _build/hotpath-measured.json --check \
	  > _build/hotpath-report.json
	@echo "wrote _build/hotpath-report.json"

bench:
	dune exec bench/main.exe

# Perf regression targets -> schema-versioned BENCH_lazyctrl.json.
bench-json:
	dune build bench/main.exe
	./_build/default/bench/main.exe --quick perf --json BENCH_lazyctrl.json

# Gate the current tree against the committed baseline: fails (exit 1)
# when any target loses more than 15% ops/sec or disappears.
bench-check: bench-json
	./_build/default/bench/main.exe compare BENCH_baseline.json BENCH_lazyctrl.json

# Domain-parallel determinism gate: the sharded engine must produce
# byte-identical fingerprints double-run and across domain counts
# (the local mirror of the CI multicore matrix).
shard-check:
	dune build bin/lazyctrl_cli.exe
	./_build/default/bin/lazyctrl_cli.exe shard-check --domains 1
	./_build/default/bin/lazyctrl_cli.exe shard-check --domains 2
	./_build/default/bin/lazyctrl_cli.exe shard-check --domains 4

# Seeded chaos scenario + the loss-rate sweep (robustness regression).
chaos:
	dune exec bin/lazyctrl_cli.exe -- chaos
	dune exec bin/lazyctrl_cli.exe -- experiment --quick chaos

# Controller-cluster chaos: kill/partition cluster members mid-run and
# check re-homing, disjoint ownership and cluster-wide exactly-once.
chaos-cluster:
	dune exec bin/lazyctrl_cli.exe -- chaos --controllers 3

# Every paper table and figure at full scale (EXPERIMENTS.md quotes these
# numbers), written to bench_output.txt.  About 5.5 minutes on a 2-core VM.
reproduce:
	dune build bin/lazyctrl_cli.exe
	./_build/default/bin/lazyctrl_cli.exe experiment > bench_output.txt
	@echo "wrote bench_output.txt"

clean:
	dune clean
