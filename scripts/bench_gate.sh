#!/usr/bin/env bash
# Bench regression gate: run the fixed bench_gate suite, record this PR's
# medians to BENCH_PR<N+1>.json (committed at the repo root, N = the
# highest committed BENCH_PR<N>.json), and fail if any
# bench's median regressed more than the threshold against the prior PR's
# BENCH_*.json. The gate is two-sided: medians that beat the baseline past
# the same margin are printed as wins and recorded in the output JSON's
# `improvements` array. With no prior baseline the gate warns, records,
# and passes.
#
#   scripts/bench_gate.sh [OUT_JSON]            (default: BENCH_PR<N+1>.json)
#   BENCH_GATE_THRESHOLD=1.15                   (ratio; 1.15 = +15%)
#
# Baselines resolve from exactly ONE canonical location: BENCH_PR*.json at
# the repo root. A BENCH_PR*.json under results/ is an error, not a
# fallback — results/ holds regenerable artifacts, and a stray copy there
# once made the gate silently compare against the wrong file.
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD="${BENCH_GATE_THRESHOLD:-1.15}"

# PR number of a committed baseline name, or nothing for any other file.
pr_number() {
  local n="${1#BENCH_PR}"
  n="${n%.json}"
  [ "BENCH_PR$n.json" = "$1" ] || return 0
  case "$n" in (''|*[!0-9]*) return 0;; esac
  echo "$n"
}

# Default output: one past the highest committed BENCH_PR<N>.json, so a
# plain run never overwrites a committed baseline.
newest=-1
for f in BENCH_PR*.json; do
  n="$(pr_number "$f")"
  [ -n "$n" ] && [ "$n" -gt "$newest" ] && newest="$n"
done
OUT="${1:-BENCH_PR$((newest + 1)).json}"

# Ambiguity check: committed baselines live at the repo root, full stop.
strays=$(ls results/BENCH_PR*.json 2>/dev/null || true)
if [ -n "$strays" ]; then
  echo "bench_gate: ERROR: BENCH_PR*.json found under results/:" >&2
  echo "$strays" | sed 's/^/bench_gate:   /' >&2
  echo "bench_gate: baselines are committed at the repo root only;" \
       "move or delete the copies under results/ and re-run." >&2
  exit 2
fi

# Newest prior baseline = the BENCH_PR<N>.json with the highest PR number,
# excluding our own output file. Sorting by the numeric N (not mtime, not
# `sort -V` over the whole name) keeps the selection stable across
# checkouts that scramble timestamps and across N crossing a digit
# boundary (BENCH_PR9 → BENCH_PR10).
BASELINE=""
best=-1
for f in BENCH_PR*.json; do
  [ "$f" = "$(basename "$OUT")" ] && continue
  n="$(pr_number "$f")"
  [ -n "$n" ] || continue
  if [ "$n" -gt "$best" ]; then
    best="$n"
    BASELINE="$f"
  fi
done

cargo build --release --offline -q -p bench --bin bench_gate

if [ -n "$BASELINE" ]; then
  echo "bench_gate: gating against baseline $BASELINE (threshold ${THRESHOLD}x)"
  ./target/release/bench_gate --out "$OUT" --baseline "$BASELINE" --threshold "$THRESHOLD"
else
  echo "bench_gate: warning: no prior BENCH_PR*.json baseline; skipping gate, recording $OUT only" >&2
  ./target/release/bench_gate --out "$OUT"
fi
