#!/usr/bin/env bash
# Build gomsm and the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload evolve|browse --seed N \
#        --seconds S --trace 0|1
#
# Run from the repository root. Daemons' data directories, port files and
# logs go under .perfbench_run/ and are removed afterwards; the last line
# of stdout is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/gomsm.ml ] || [ ! -d lib/server ]; then
  echo "perfbench: run from the root of a gomsm checkout (dune-project, bin/, lib/ missing)" >&2
  exit 2
fi

dune build --root . ./bin/gomsm.exe ./perfbench/main.exe 1>&2
# flush the build's writes first: their writeback would slow the daemons'
# journal fsyncs during the first timed phase
sync

run_dir=.perfbench_run/$$
rm -rf "$run_dir"
mkdir -p "$run_dir"
status=0
./_build/default/perfbench/main.exe --gomsm ./_build/default/bin/gomsm.exe \
  --dir "$run_dir" "$@" || status=$?
rm -rf "$run_dir"
rmdir .perfbench_run 2>/dev/null || true
exit "$status"
