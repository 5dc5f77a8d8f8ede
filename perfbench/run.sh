#!/usr/bin/env bash
# Build perfbench from the sources of this checkout, then run it with the
# given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr so the result stays the last stdout line.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artefact inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
