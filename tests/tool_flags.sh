#!/bin/sh
# Flag-probe gate for dfsim, dfscluster and every bench harness, generated
# from each binary's --help table rather than from a hand-kept list. Each
# --help run also registers every row, which throws if a default lies
# outside its own range. For every numeric flag it passes nan, a number
# with trailing junk, a value just outside the printed range, and no value
# at all; every choice flag gets an unknown option; each tool also gets an
# unknown flag and a stray positional argument. Every probe must exit 1
# within 10 s with an error on stderr that names the flag (and, for a bad
# value, its range). The motivating defects are checked by name at the end:
# NaN horizons that never terminated, and atoi/atof quietly reading "abc"
# as 0 or "3x" as 3 (in the harnesses, a --max-regress of 0 that gated
# every metric at 0 % tolerance).
#
# Usage: tool_flags.sh <tools_dir> <bench_dir>
set -u

TOOLS_DIR=$(cd "$1" && pwd) || exit 1
BENCH_DIR=$(cd "$2" && pwd) || exit 1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
# A probe that wrongly starts a run writes its report here, not in the
# caller's directory.
cd "$WORK" || exit 1
probes=0
failures=0

bin() {
  case $1 in
    dfs*) echo "$TOOLS_DIR/$1" ;;
    *) echo "$BENCH_DIR/$1" ;;
  esac
}

# The figure and ablation harnesses that take flags: each takes --seeds,
# some also --jobs and --quick.
HARNESSES="fig7_simulation fig8_bdf_edf fig9_testbed table1_breakdown
  ablation_affinity ablation_contention ablation_delay ablation_edf_knobs
  ablation_fair ablation_faults ablation_heartbeat ablation_hedging
  ablation_lrc ablation_recovery ablation_repair ablation_replication
  ablation_sources ablation_speculation ablation_tenancy
  cluster_steady_state"

# Harnesses whose only flag is --help: a bad command line must stop them
# before the experiment prints anything.
FLAGLESS="fig3_motivating fig4_pacing fig5_analysis ablation_utilization"

# expect_error <tool> <flag> <range|""> [args...]
expect_error() {
  tool=$1 flag=$2 range=$3
  shift 3
  probes=$((probes + 1))
  timeout 10 "$(bin "$tool")" "$@" > "$WORK/out" 2> "$WORK/err"
  rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL: $tool $*: exit $rc, want 1 (124 = killed after 10 s)" >&2
    failures=$((failures + 1))
  elif ! grep -q -F -- "$flag" "$WORK/err" ||
       { [ -n "$range" ] && ! grep -q -F -- "$range" "$WORK/err"; }; then
    echo "FAIL: $tool $*: error does not name $flag $range:" >&2
    cat "$WORK/err" >&2
    failures=$((failures + 1))
  fi
}

# outside <range>: a number just outside a range like "[1,inf)", "(0,1]" or
# "0|(1,inf)" (the last interval counts; for "AxB" list ranges, the first).
outside() {
  echo "$1" | awk '{
    r = $0; sub(/^.*\|/, "", r); sub(/x.*$/, "", r)
    lo_closed = substr(r, 1, 1) == "["; hi_closed = substr(r, length(r)) == "]"
    split(substr(r, 2, length(r) - 2), b, ",")
    if (b[1] != "-inf") print (lo_closed ? b[1] - 1 : b[1])
    else print (hi_closed ? b[2] + 1 : b[2])
  }'
}

for tool in dfsim dfscluster perf_regression scale_regression $HARNESSES; do
  if ! timeout 10 "$(bin "$tool")" --help > "$WORK/help"; then
    echo "FAIL: $tool --help did not exit 0" >&2
    failures=$((failures + 1))
    continue
  fi
  # Rows read "--name kind range default meaning...".
  awk '$1 ~ /^--/ && $2 ~ /^(int|num)/ { print $1, $2, $3 }' "$WORK/help" \
    > "$WORK/numeric"
  if [ ! -s "$WORK/numeric" ]; then
    echo "FAIL: $tool --help lists no numeric flags" >&2
    failures=$((failures + 1))
  fi
  while read -r flag kind range; do
    bad=$(outside "$range")
    # A fixed-length list ("num,num") gets the bad value in every slot.
    value=$bad
    case $kind in *,num*) value=$(echo "$kind" | sed "s/num/$bad/g") ;; esac
    expect_error "$tool" "$flag" "$range" "$flag" nan
    expect_error "$tool" "$flag" "$range" "$flag" 1x
    expect_error "$tool" "$flag" "$range" "$flag" "$value"
    expect_error "$tool" "$flag" "" "$flag"
  done < "$WORK/numeric"
  awk '$1 ~ /^--/ && $2 == "choice" { print $1, $3 }' "$WORK/help" \
    > "$WORK/choice"
  while read -r flag options; do
    expect_error "$tool" "$flag" "$options" "$flag" bogus
  done < "$WORK/choice"
  expect_error "$tool" --no-such-flag "" --no-such-flag 1
  expect_error "$tool" stray "" stray
done

for tool in $FLAGLESS; do
  if ! timeout 10 "$(bin "$tool")" --help > "$WORK/help"; then
    echo "FAIL: $tool --help did not exit 0" >&2
    failures=$((failures + 1))
  fi
  for probe in "--no-such-flag 1" stray; do
    # shellcheck disable=SC2086 # the probe is split into its words
    expect_error "$tool" "${probe%% *}" "" $probe
    if [ -s "$WORK/out" ]; then
      echo "FAIL: $tool $probe: ran the experiment before rejecting it" >&2
      failures=$((failures + 1))
    fi
  done
done

# The perf harnesses' --out default must not name a committed baseline
# (BENCH_perf.json, BENCH_scale.json): a gate run given only --quick
# --baseline would overwrite it with a quick report.
for tool in perf_regression scale_regression; do
  probes=$((probes + 1))
  timeout 10 "$(bin "$tool")" --help > "$WORK/help"
  out=$(awk '$1 == "--out" { print $4 }' "$WORK/help")
  case $out in
    BENCH_*_ci.json) ;;
    "" | BENCH_*.json)
      echo "FAIL: $tool --out default '$out' is missing or committed" >&2
      failures=$((failures + 1)) ;;
  esac
done

# dfsec's rows are checked at registration by --help; its subcommands take
# positional paths, so the probes above do not apply.
if ! timeout 10 "$(bin dfsec)" --help > "$WORK/help"; then
  echo "FAIL: dfsec --help did not exit 0" >&2
  failures=$((failures + 1))
fi

# A default passed back on the command line is accepted: --tenants 0 is
# dfscluster's own default ("none").
probes=$((probes + 1))
if ! timeout 10 "$(bin dfscluster)" --tenants 0 --hours 0.05 > "$WORK/out" \
     2> "$WORK/err"; then
  echo "FAIL: dfscluster --tenants 0 did not run:" >&2
  cat "$WORK/err" >&2
  failures=$((failures + 1))
fi

# The defects that motivated the strict parser, by name.
expect_error dfscluster --hours "(0,inf)" --hours nan
expect_error dfsim --heartbeat "(0,inf)" --heartbeat nan
expect_error dfscluster --seed "[0,inf)" --seed abc
expect_error dfsim --racks "[1,inf)" --racks 3x
expect_error dfsim --sources "random|samerack" --sources bogus
expect_error dfsim stray "" --seeds 1 stray
expect_error dfscluster stray "" --hours 0.1 stray
expect_error perf_regression --max-regress "[0,1)" --max-regress abc
expect_error perf_regression --seeds "[1,inf)" --seeds 2x
expect_error scale_regression --seed "[0,inf)" --seed abc
expect_error scale_regression --max-regress "[0,1)" --max-regress 1e-400x
# Every harness rejects a non-numeric --seeds the way the tools reject a
# bad value: exit 1, naming the flag and its range.
for tool in $HARNESSES; do
  expect_error "$tool" --seeds "[1,inf)" --seeds abc
done

if [ "$failures" -ne 0 ]; then
  echo "tool_flags: $failures of $probes probes failed" >&2
  exit 1
fi
echo "tool_flags: all $probes probes pass"
