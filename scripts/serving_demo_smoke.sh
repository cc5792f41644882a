#!/usr/bin/env bash
# serving demo smoke: the serving walkthrough (examples/serving_demo) end to
# end — train, checkpoint, serve on three workers that share one network per
# version, hot swap — at its CLI surface.
#
#   usage: serving_demo_smoke.sh <path-to-serving_demo> <workdir>
#
# The demo writes model_v1.ckpt and model_v2.ckpt to its working directory,
# so it runs in <workdir>.  Passes when it exits 0 and some request was
# served by version 2, i.e. after the hot swap.
set -uo pipefail

DEMO=${1:?usage: serving_demo_smoke.sh <serving_demo> <workdir>}
WORK=${2:?usage: serving_demo_smoke.sh <serving_demo> <workdir>}
rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK" || exit 1

out=$("$DEMO" --epochs 1 --requests 100 --workers 3)
status=$?
echo "$out"
[ "$status" -eq 0 ] || { echo "FAIL: serving_demo exited $status"; exit 1; }
[[ "$out" == *"served by version 2"* ]] || { echo "FAIL: nothing served by version 2"; exit 1; }
echo "serving demo smoke OK"
