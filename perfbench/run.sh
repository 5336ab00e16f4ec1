#!/usr/bin/env bash
# Build the benchmark and the qdt CLI from source, then run the benchmark.
# Run from the repository root:
#   bash perfbench/run.sh --workload sim-batch --seed 1 --seconds 25 --trace 0
# The last line of standard output is the JSON result; build output goes
# to standard error.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --profile release perfbench/main.exe bin/qdt_cli.exe 1>&2
# In-process kernels run on one domain, like the served worker.
export QDT_JOBS=1
# The benchmark and the qdt serve child it spawns share one CPU (the
# first this shell may use): hand-offs between client threads, server
# threads and the worker domain are then same-CPU wake-ups, whose cost
# does not swing with host load the way cross-vCPU wake-ups do on a
# shared virtual machine.
pin=()
if command -v taskset > /dev/null; then
  cpu=$(taskset -pc $$ | sed 's/.*: *//; s/[,-].*//')
  pin=(taskset -c "$cpu")
fi
exec ${pin[@]+"${pin[@]}"} _build/default/perfbench/main.exe --qdt _build/default/bin/qdt_cli.exe "$@"
