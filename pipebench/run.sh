#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# root of a checkout) and runs it with the given arguments, e.g.
#   bash pipebench/run.sh --workload cqm_train --seed 1 --seconds 15 --trace 0
# Build output goes to stderr so the result stays the last line of stdout.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . --display quiet ./pipebench/main.exe 1>&2
exec ./_build/default/pipebench/main.exe "$@"
