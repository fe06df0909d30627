#!/usr/bin/env bash
# Build the benchmark from source (release profile), then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the repository. Build output goes to _build/,
# run state and span traces to .perfbench/.
#
# The run is pinned to one CPU: the writer is serial, and the client and
# the server of the serve phase take turns in a closed loop, so one CPU is
# all they use; pinned, they stop paying for cross-CPU wake-ups whose cost
# varies with how the host schedules them.
set -u
cd "$(dirname "$0")/.." || exit 2
export DUNE_CACHE=disabled
if ! dune build --root . --profile release ./perfbench/main.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
bench=./_build/default/perfbench/main.exe
if command -v taskset >/dev/null 2>&1; then
  exec taskset -c "$(( $(nproc) - 1 ))" "$bench" "$@"
fi
exec "$bench" "$@"
