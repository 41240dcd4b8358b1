#!/usr/bin/env bash
# Paired nkbench runs: a parent revision against the working tree, on one
# box. Builds the working tree's nkbench and, from a `git archive` of
# <parent-rev> in a temporary directory, the parent's. Then, per workload,
# runs N pairs of untraced seed-1 runs as long as BENCHMARK.json's
# run_seconds, alternating which side goes first, and prints one line per
# end-to-end metric of BENCHMARK.json: both medians, the change's median
# relative to the parent's, each side's IQR (q3 - q1), how many pairs the
# change won (a tie wins nothing) and the failed operations summed over
# each side's runs. The change's IQR beside the parent's shows whether its
# own runs split into modes. The last two columns are the verdict: the
# median and IQR of the per-pair ratio change / parent (pair i is each
# side's i-th run, so the box's drift, which moves both runs of a pair
# together, cancels out; below 1 is better for a "lower" metric). Reads and
# edits no nkbench file.
#   scripts/bench-pairs.sh <parent-rev> <workload>... [--pairs N]
# N defaults to 10. The build directory goes under ${TMPDIR:-/tmp} and is
# removed on exit.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: $0 <parent-rev> <workload>... [--pairs N]" >&2
  exit 2
}
[ $# -ge 2 ] || usage
parent_rev=$1
shift
pairs=10 workloads=()
while [ $# -gt 0 ]; do
  case $1 in
    --pairs) pairs=${2:?}; shift 2 ;;
    -*) usage ;;
    *) workloads+=("$1"); shift ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] || usage
git rev-parse --verify -q "$parent_rev^{commit}" >/dev/null || {
  echo "$0: no commit $parent_rev" >&2
  exit 2
}

seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' BENCHMARK.json)
# name:better for every end-to-end metric, in BENCHMARK.json's order.
metrics=$(awk '
  /"end_to_end"/ { on = 1 }
  on && /^  \]/ { on = 0 }
  on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
  on && /"better"/ { gsub(/[",]/, "", $2); print name ":" $2 }
' BENCHMARK.json)

work=$(mktemp -d "${TMPDIR:-/tmp}/nk-pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
build() { # <checkout> <binary to write>
  (cd "$1" && env -u CARGO_TARGET_DIR cargo build --release --offline -q \
    --manifest-path examples/nkbench/Cargo.toml)
  cp "$1/examples/nkbench/target/release/nkbench" "$2"
}
echo "building the change's nkbench" >&2
build . "$work/change"
echo "building $parent_rev's nkbench" >&2
mkdir "$work/parent-src"
git archive "$parent_rev" | tar -xf - -C "$work/parent-src"
build "$work/parent-src" "$work/parent"
rm -rf "$work/parent-src"

run() { # <side> <workload>: append one JSON line to $work/<workload>.<side>
  "$work/$1" --workload "$2" --seed 1 --seconds "$seconds" --trace 0 >>"$work/$2.$1"
}

printf '%-9s %-18s %12s %12s %8s %11s %11s %6s %-9s %7s %9s\n' \
  workload metric parent change delta parent_IQR change_IQR wins failed ratio ratio_IQR
for w in "${workloads[@]}"; do
  for i in $(seq 1 "$pairs"); do
    echo "$w: pair $i of $pairs" >&2
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$w"
      run change "$w"
    else
      run change "$w"
      run parent "$w"
    fi
  done
  for m in $metrics; do
    W=$w M=${m%%:*} BETTER=${m#*:} awk '
      function value(line, key,   at) {
        at = index(line, "\"" key "\":{\"value\":")
        if (at == 0) return "nan"
        return substr(line, at + length(key) + 12) + 0
      }
      function failed(line,   at) {
        at = index(line, "\"failed\":")
        return substr(line, at + 9) + 0
      }
      # The q-quantile of v[1..n], sorted, interpolated between ranks.
      function quantile(v, n, q,   pos, lo) {
        pos = 1 + q * (n - 1)
        lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
      }
      function sort(v, n,   i, j, t) {
        for (i = 2; i <= n; i++)
          for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
      }
      FNR == 1 { side++ }
      side == 1 { p[++np] = value($0, ENVIRON["M"]); pf += failed($0) }
      side == 2 { c[++nc] = value($0, ENVIRON["M"]); cf += failed($0) }
      END {
        for (i = 1; i <= np && i <= nc; i++) {
          wins += ENVIRON["BETTER"] == "higher" ? c[i] > p[i] : c[i] < p[i]
          if (p[i] != 0) r[++nr] = c[i] / p[i]
        }
        sort(p, np); sort(c, nc); sort(r, nr)
        pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
        printf "%-9s %-18s %12.4g %12.4g %+7.1f%% %11.4g %11.4g %3d/%-2d %-9s %7.4f %9.4f\n", ENVIRON["W"], ENVIRON["M"],
          pm, cm, pm == 0 ? 0 : 100 * (cm - pm) / pm, quantile(p, np, 0.75) - quantile(p, np, 0.25),
          quantile(c, nc, 0.75) - quantile(c, nc, 0.25), wins, np, pf "/" cf,
          nr ? quantile(r, nr, 0.5) : 0, nr ? quantile(r, nr, 0.75) - quantile(r, nr, 0.25) : 0
      }
    ' "$work/$w.parent" "$work/$w.change"
  done
done
