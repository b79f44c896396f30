#!/bin/sh
# Builds prefdb and the benchmark program from the checkout this script
# lives in, then runs one benchmark invocation:
#
#   sh servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the program's last stdout line is the
# JSON result.
set -eu
cd "$(dirname "$0")/.."
# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./bin/prefdb.exe ./servebench/servebench.exe 1>&2
bin=./_build/default/servebench/servebench.exe
# The client, the server it starts and the in-process replays share one
# CPU (see README.md, "Steady by construction"), when taskset can pin.
cpu=$(($(nproc) - 1))
if command -v taskset >/dev/null 2>&1 && taskset -c "$cpu" true 2>/dev/null; then
  echo "servebench: pinned to CPU $cpu" 1>&2
  exec taskset -c "$cpu" "$bin" "$@"
fi
echo "servebench: not pinned (no usable taskset)" 1>&2
exec "$bin" "$@"
