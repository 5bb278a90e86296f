#!/bin/sh
# Scale-tier determinism gate: a 1000-slave dfscluster run must be
# byte-identical across worker-thread counts and across repeated same-seed
# runs. This extends the golden-corpus contract to sizes the corpus itself
# (pinned to the paper's 40-node cluster) never reaches; a single-seed run
# is one sweep cell, so the repeat leg checks same-seed identity. Only the
# echoed --jsonl path differs between invocations, so the stdout comparison
# strips that one line and the JSONL bytes are compared whole.
#
# Usage: scale_determinism.sh <tools_dir>
set -eu

TOOLS_DIR=$1
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

run() {
  # run <tag> <jobs>: one 1000-slave run, ~2 s in a Release build.
  "$TOOLS_DIR/dfscluster" --hours 0.25 --slaves 1000 --blocks 255 \
    --interarrival 10 --seed 3 --jobs "$2" --jsonl "$1.jsonl" \
    > "$1.stdout.raw" 2> "$1.stderr"
  grep -v '^JSONL run record written to ' "$1.stdout.raw" > "$1.stdout"
}

run serial 1
run parallel 4
run repeat 4

fail=0
for tag in parallel repeat; do
  for artifact in jsonl stdout stderr; do
    if ! cmp -s "serial.$artifact" "$tag.$artifact"; then
      echo "scale_determinism: serial.$artifact != $tag.$artifact" >&2
      fail=1
    fi
  done
done
[ "$fail" -eq 0 ] || exit 1
echo "scale_determinism: 1000-slave run byte-identical across --jobs 1/4 and repeated seeds"
