#!/usr/bin/env bash
# Aggregates the committed BENCH_*.json baselines (and any freshly
# generated reports passed as arguments) into one markdown perf table,
# appended to $GITHUB_STEP_SUMMARY when set, else printed to stdout.
#
# Pure bash/grep/sed on the flat top-level keys of the bench schema —
# no python or jq, so it runs identically on a bare runner and locally.
set -euo pipefail
cd "$(dirname "$0")/.."

# Top-level scalar field of a flat bench JSON document: first match of
#   "key": value
# outside the rows array (top-level keys precede "rows" in every report).
field() { # file key -> value or "-"
  local v
  v=$(sed -n 's/^  "'"$2"'": *\([^,}]*\),*$/\1/p' "$1" | head -n 1)
  [ -n "$v" ] && printf '%s' "$v" | tr -d '"' || printf '%s' "-"
}

# meta block field (two-space-deeper indentation).
meta() { # file key -> value or "-"
  local v
  v=$(sed -n 's/^    "'"$2"'": *\([^,}]*\),*$/\1/p' "$1" | head -n 1)
  [ -n "$v" ] && printf '%s' "$v" | tr -d '"' || printf '%s' "-"
}

round2() { # trim a float to 2 decimals without bc
  case "$1" in
  *.*) printf '%s' "$1" | sed 's/\(\.[0-9][0-9]\)[0-9]*$/\1/' ;;
  *) printf '%s' "$1" ;;
  esac
}

files=("$@")
if [ ${#files[@]} -eq 0 ]; then
  for f in BENCH_*.json; do
    [ -e "$f" ] && files+=("$f")
  done
fi
if [ ${#files[@]} -eq 0 ]; then
  echo "bench_summary: no BENCH_*.json baselines found" >&2
  exit 1
fi

out=$(mktemp)
{
  echo "### Benchmark baselines"
  echo
  echo "| report | tool | target | engine | geomean speedup | batch | batch speedup | identical | size |"
  echo "|---|---|---|---|---|---|---|---|---|"
  for f in "${files[@]}"; do
    tool=$(meta "$f" tool)
    mode=$(meta "$f" engine)
    # Schema 3: the costing target joins meta (the per-target CI
    # matrix keeps one baseline per leg, and this table is the one place
    # the whole matrix is visible at once). compbench has no target.
    target=$(meta "$f" target)
    gm=$(round2 "$(field "$f" geomean_speedup)")
    # servebench meta carries the batch size cap; its plan_share section
    # carries the measured batched/unbatched throughput ratio. Both are
    # nested one level deep, same indentation as the meta block.
    mb=$(meta "$f" max_batch)
    if [ "$mb" = "-" ]; then
      batch="-"
    elif [ "$mb" = "1" ]; then
      batch="off"
    else
      batch="max $mb"
    fi
    bs=$(meta "$f" batch_speedup)
    [ "$bs" != "-" ] && bs="$(round2 "$bs")x"
    # runbench reports per-kernel identity; servebench reports checked.
    ident=$(field "$f" identical)
    [ "$ident" = "-" ] && ident=$(field "$f" checked)
    size=$(field "$f" kernels)
    [ "$size" = "-" ] && size="$(field "$f" items) items" || size="$size kernels"
    echo "| $f | $tool | $target | $mode | ${gm}x | $batch | $bs | $ident | $size |"
  done
  echo
} >"$out"

cat "$out"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
  cat "$out" >>"$GITHUB_STEP_SUMMARY"
fi
rm -f "$out"
