#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no project sources beside perfbench/" >&2
  exit 2
fi
if command -v dune >/dev/null 2>&1; then
  dune=(dune)
else
  dune=(opam exec -- dune)
fi
# keep every build product inside the checkout
export DUNE_CACHE=disabled
"${dune[@]}" build --root . --display quiet perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
