#!/usr/bin/env bash
# kernel env check: every binary in the given directories must reject a bad
# TDFM_KERNEL before any work, so a typo costs no data generation, fault
# injection or training first.
#
#   usage: kernel_env_check.sh <dir>...
#
# Each regular executable file of each <dir> runs with TDFM_KERNEL=sse2 (a
# deleted table) and no arguments; it passes when it exits 1 with the named
# error on stderr and prints nothing on stdout (no banner, no progress).
set -uo pipefail

[ $# -gt 0 ] || { echo "usage: kernel_env_check.sh <dir>..."; exit 2; }
err_file=$(mktemp)
trap 'rm -f "$err_file"' EXIT
want="TDFM_KERNEL: unknown kernel 'sse2'"
count=0
failed=0
for dir in "$@"; do
  for bin in "$dir"/*; do
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    count=$((count + 1))
    out=$(TDFM_KERNEL=sse2 timeout 120 "$bin" 2> "$err_file" < /dev/null)
    status=$?
    err=$(cat "$err_file")
    if [ "$status" -ne 1 ] || [ -n "$out" ] || [[ "$err" != *"$want"* ]]; then
      echo "FAIL: $(basename "$bin") exited $status"
      echo "  stdout: ${out:0:200}"
      echo "  stderr: ${err:0:200}"
      failed=$((failed + 1))
    fi
  done
done
[ "$count" -gt 0 ] || { echo "FAIL: no binaries in $*"; exit 1; }
[ "$failed" -eq 0 ] || { echo "$failed of $count binaries did work before rejecting TDFM_KERNEL"; exit 1; }
echo "kernel env check OK: $count binaries"
