#!/usr/bin/env bash
# store smoke: a real smoke-preset campaign journal must survive the full
# store lifecycle — import, query, aggregate, archive — losslessly.
#
#   usage: store_smoke.sh <path-to-study_runner> <path-to-study_query> [workdir]
#
# Checks, in order:
#   1. import + export reproduces the campaign journal byte for byte, and
#      the store is >= 5x smaller than the JSONL.
#   2. a technique-filtered store query prints exactly the lines a grep of
#      the journal prints, while skipping at least one segment unread
#      (zone-map pushdown on real campaign data).
#   3. `study_runner --report-only --store` renders the byte-identical
#      report to the JSONL-backed `--journal` path.
#   4. `study_query agg` renders that same report from the store directly.
#   5. `--merge auto` discovers the per-shard journals a --spawn run leaves
#      behind and reproduces the merged journal byte for byte.
#   6. the campaign's metric snapshots archive into the store and restore
#      byte-identically (the store as a one-artefact paper run).
set -euo pipefail

RUNNER=${1:?usage: store_smoke.sh <study_runner> <study_query> [workdir]}
QUERY=${2:?usage: store_smoke.sh <study_runner> <study_query> [workdir]}
QUERY=$(realpath "$(command -v "$QUERY")")  # step 1 runs it from $WORK
WORK=${3:-$(mktemp -d)}
rm -rf "$WORK"
mkdir -p "$WORK"

# Six trials: enough cells (18) that fixed store overhead (manifest header,
# dictionaries) amortises and the 5x gate is meaningful, still seconds-fast.
run() { "$RUNNER" --preset smoke --trials 6 --log warn "$@"; }

# --- 1. lossless import, >= 5x smaller ---------------------------------------
run --jobs 2 --journal "$WORK/smoke.jsonl" --report csv --out "$WORK/ref.csv"
# The manifest records the journal path it was imported from, so import from
# inside $WORK by relative path: the sizes, and the 5x gate, must not depend
# on where the build directory lives.
(cd "$WORK" && "$QUERY" import --journal smoke.jsonl --store smoke.store \
    --log warn) 2> "$WORK/import.log"
grep -q "verified: export reproduces the journal byte-for-byte" \
    "$WORK/import.log" \
  || { echo "FAIL: import did not verify byte-identity"; cat "$WORK/import.log"; exit 1; }
"$QUERY" export --store "$WORK/smoke.store" --out "$WORK/roundtrip.jsonl"
cmp "$WORK/smoke.jsonl" "$WORK/roundtrip.jsonl" \
  || { echo "FAIL: export is not byte-identical to the journal"; exit 1; }
journal_bytes=$(wc -c < "$WORK/smoke.jsonl")
store_bytes=$(du -bc "$WORK/smoke.store"/* | tail -1 | cut -f1)
[ $((store_bytes * 5)) -le "$journal_bytes" ] \
  || { echo "FAIL: store ($store_bytes B) is not >= 5x smaller than the" \
            "journal ($journal_bytes B)"; exit 1; }

# --- 2. filtered query == grep, with segments skipped unread -----------------
# Re-import at 4-row segments so the 18-cell journal spans 5 segments and
# zone maps have something to prune.
"$QUERY" import --journal "$WORK/smoke.jsonl" --store "$WORK/seg.store" \
    --segment-rows 4 --log warn 2> /dev/null
technique=$(sed -n 's/.*"technique": "\([^"]*\)".*/\1/p' "$WORK/smoke.jsonl" \
    | sort -u | head -1)
"$QUERY" filter --store "$WORK/seg.store" --technique "$technique" \
    --out "$WORK/filtered.jsonl" --log warn 2> "$WORK/filter.log"
grep "\"technique\": \"$technique\"" "$WORK/smoke.jsonl" > "$WORK/grepped.jsonl"
cmp "$WORK/filtered.jsonl" "$WORK/grepped.jsonl" \
  || { echo "FAIL: filtered query differs from grep of the journal"; exit 1; }
skipped=$(sed -n 's/.*(\([0-9]*\) skipped by zone maps).*/\1/p' "$WORK/filter.log")
[ "${skipped:-0}" -gt 0 ] \
  || { echo "FAIL: technique filter skipped no segments"; cat "$WORK/filter.log"; exit 1; }

# --- 3. store-backed report == JSONL-backed report ---------------------------
run --report-only true --journal "$WORK/smoke.jsonl" \
    --report csv --out "$WORK/from_journal.csv"
run --report-only true --store "$WORK/smoke.store" \
    --report csv --out "$WORK/from_store.csv"
cmp "$WORK/from_journal.csv" "$WORK/from_store.csv" \
  || { echo "FAIL: store-backed report differs from JSONL-backed report"; exit 1; }
cmp "$WORK/ref.csv" "$WORK/from_store.csv" \
  || { echo "FAIL: store-backed report differs from the live run's report"; exit 1; }

# --- 4. study_query agg renders the same report ------------------------------
"$QUERY" agg --store "$WORK/smoke.store" --report csv \
    --out "$WORK/agg.csv" --log warn 2> /dev/null
cmp "$WORK/ref.csv" "$WORK/agg.csv" \
  || { echo "FAIL: study_query agg differs from study_runner --report"; exit 1; }

# --- 5. --merge auto discovers the shard siblings ----------------------------
run --spawn 2 --jobs 1 --journal "$WORK/fleet.jsonl" --report none
mv "$WORK/fleet.jsonl" "$WORK/fleet.expected.jsonl"
run --merge auto --journal "$WORK/fleet.jsonl" --report none 2> "$WORK/merge.log"
grep -q "discovered 2 shard journals" "$WORK/merge.log" \
  || { echo "FAIL: --merge auto did not discover the shards"; cat "$WORK/merge.log"; exit 1; }
cmp "$WORK/fleet.expected.jsonl" "$WORK/fleet.jsonl" \
  || { echo "FAIL: --merge auto journal differs from the --spawn merge"; exit 1; }

# --- 6. telemetry archives into the store and restores byte-identically ------
run --spawn 2 --jobs 1 --journal "$WORK/obs.jsonl" --progress true \
    --report none 2> /dev/null
"$QUERY" import --journal "$WORK/obs.jsonl" --store "$WORK/obs.store" \
    --obs-dir "$WORK/obs.jsonl.obs" --log warn 2> "$WORK/obs-import.log"
grep -q "snapshots archived" "$WORK/obs-import.log" \
  || { echo "FAIL: import archived no snapshots"; cat "$WORK/obs-import.log"; exit 1; }
"$QUERY" restore-obs --store "$WORK/obs.store" --out "$WORK/obs.restored" \
    --log warn 2> /dev/null
for f in "$WORK/obs.jsonl.obs"/metrics-*.jsonl; do
  cmp "$f" "$WORK/obs.restored/$(basename "$f")" \
    || { echo "FAIL: restored snapshot $(basename "$f") differs"; exit 1; }
done

echo "store smoke OK"
