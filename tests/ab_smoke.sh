#!/bin/sh
# Smoke test of bench/ab.py on two stub benchmark scripts. The stubs log
# their runs to a shared file and print perfbench-style result lines; the
# change stub is 20% faster on run_s and worse on peak_rss_mb. Checks the
# alternating run order, the pairs won, the median ratio, and that a run
# reporting "correct": false or a metric BENCHMARK.json does not list stops
# the comparison.
#
# Usage: ab_smoke.sh <repo_root>
set -eu

ROOT=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

stub() {
  # stub <name> <run_s base> <peak_rss_mb> <correct> [<name of the rss metric>]
  cat > "$WORK/$1" <<EOF
#!/usr/bin/env python3
import json, sys
log = sys.argv[1]
with open(log, "a+") as f:
    f.seek(0)
    n = len(f.read().split())
    f.write("$1 ")
print("noise before the result line")
print(json.dumps({"correct": $4, "attempted": 1, "failed": 0, "metrics": {
    "run_s": {"value": $2 + 0.1 * (n % 3), "unit": "s"},
    "${5:-peak_rss_mb}": {"value": $3, "unit": "MiB"}}}))
EOF
  chmod +x "$WORK/$1"
}
stub parent 10.0 40.0 True
stub change 8.0 41.0 True
stub broken 8.0 41.0 False
stub unlisted 8.0 41.0 True rss_mb

python3 "$ROOT/bench/ab.py" "$WORK/parent" "$WORK/change" --pairs 4 \
  -- "$WORK/log" > "$WORK/out" 2> /dev/null

order=$(cat "$WORK/log")
if [ "$order" != "parent change change parent parent change change parent " ]; then
  echo "ab_smoke: run order not alternating: $order" >&2
  exit 1
fi
tail -n 1 "$WORK/out" | python3 -c '
import json, sys
s = json.load(sys.stdin)
run, rss = s["run_s"], s["peak_rss_mb"]
assert run["pairs"] == 4 and run["won"] == 4, run
assert 0.78 < run["ratio"] < 0.82, run
lo, hi = run["ratio_ci95"]
assert lo <= run["ratio"] <= hi, run
assert run["parent"][1] > run["change"][1], run
assert rss["won"] == 0 and rss["ratio"] == 41.0 / 40.0, rss
assert [round(v, 6) for v in run["parent_runs"]] == [10.0, 10.0, 10.1, 10.1], run
assert [round(v, 6) for v in run["change_runs"]] == [8.1, 8.2, 8.2, 8.0], run
'

if python3 "$ROOT/bench/ab.py" "$WORK/parent" "$WORK/broken" --pairs 1 \
    -- "$WORK/log2" > /dev/null 2>&1; then
  echo "ab_smoke: an incorrect run did not fail the comparison" >&2
  exit 1
fi
if python3 "$ROOT/bench/ab.py" "$WORK/unlisted" "$WORK/unlisted" --pairs 1 \
    -- "$WORK/log3" > /dev/null 2>&1; then
  echo "ab_smoke: a metric without a direction did not fail the comparison" >&2
  exit 1
fi
echo "ab_smoke: bench/ab.py alternates, pairs and summarizes as expected"
