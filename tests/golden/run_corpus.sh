#!/bin/sh
# Golden-corpus byte-identity gate.
#
# Runs a fixed matrix of dfsim / dfscluster invocations at pinned seeds and
# compares a SHA-256 manifest of every output artifact (stdout, stderr, task
# and attempt CSVs, timeline CSV, JSONL records) against the committed
# manifest. Any refactor that claims to be behavior-preserving inherits this
# check instead of re-deriving it by hand: if the bytes move, the test names
# exactly which artifact diverged.
#
# Usage:
#   run_corpus.sh <tools_dir>             # verify against corpus.sha256
#   run_corpus.sh <tools_dir> --update    # regenerate corpus.sha256
#
# The corpus deliberately crosses the big behavioral axes: schedulers,
# placement/codes (RS + replication), contention models, repair, speculation,
# dfsim's --stats lines, the online lifecycle, the fault layer (--faults with
# transient attempt crashes) and hedged degraded reads against stragglers.
# Keep every case fast (< a few seconds); this runs in CI on every push.
set -eu

TOOLS_DIR=$1
MODE=${2:-verify}
HERE=$(cd "$(dirname "$0")" && pwd)
MANIFEST="$HERE/corpus.sha256"

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

run() {
  # run <case-name> <binary> [args...]: capture stdout/stderr as artifacts.
  name=$1
  shift
  "$TOOLS_DIR/$@" > "$name.stdout" 2> "$name.stderr"
}

# --- dfsim: snapshot runs ---------------------------------------------------
run sim_edf_csv dfsim --racks 3 --nodes-per-rack 4 --code rs:6,4 \
  --blocks 120 --reducers 5 --seeds 3 --scheduler EDF --csv sim_edf
run sim_bdf_netstats dfsim --racks 4 --nodes-per-rack 4 --code rs:8,6 \
  --blocks 84 --reducers 4 --seeds 2 --scheduler BDF --stats \
  --repair 2 --speculate --normalize
run sim_rep_fifo dfsim --racks 3 --nodes-per-rack 4 --code rep:3 \
  --placement replicated --contention fifo --failure rack --blocks 60 \
  --reducers 3 --seeds 2 --scheduler LF

# --- dfscluster: online lifecycle runs --------------------------------------
run cluster_base dfscluster --hours 0.3 --warmup 60 --seed 7 --seeds 2 \
  --blocks 60 --reducers 4 --interarrival 90 --mttf-hours 1 \
  --jsonl cluster_base.jsonl --csv cluster_base_timeline.csv
run cluster_faults dfscluster --hours 0.3 --warmup 60 --seed 3 \
  --blocks 60 --reducers 4 --interarrival 90 --mttf-hours 1 --faults \
  --attempt-failure-prob 0.02 --retry-backoff 2 \
  --jsonl cluster_faults.jsonl --attempts-csv cluster_faults_attempts.csv

# Hedging flags explicitly at their off values: must be byte-identical to
# cluster_base. Degraded reads run through the fetch supervisor either way;
# the contract is that spelling every hedging flag at its off value behaves
# exactly like leaving it at its default.
run cluster_hedge_off dfscluster --hours 0.3 --warmup 60 --seed 7 --seeds 2 \
  --blocks 60 --reducers 4 --interarrival 90 --mttf-hours 1 \
  --jsonl cluster_hedge_off.jsonl --csv cluster_hedge_off_timeline.csv \
  --hedge 0 --hedge-quorum 0 --fetch-timeout 0 \
  --fetch-retries 2 --fetch-backoff 0.5 --straggler-fraction 0 \
  --straggler-slowdown 4 --straggler-jitter 0 --straggler-alpha 0 \
  --straggler-fail-prob 0
cmp cluster_base.jsonl cluster_hedge_off.jsonl
cmp cluster_base_timeline.csv cluster_hedge_off_timeline.csv

# Tenancy/heterogeneity flags explicitly at their off values: same contract.
# `--admission fair` with no tenants is also pinned byte-identical to FIFO by
# Cluster.SingleTenantFairAdmissionIsByteIdenticalToFifo; here the defaults.
run cluster_tenancy_off dfscluster --hours 0.3 --warmup 60 --seed 7 --seeds 2 \
  --blocks 60 --reducers 4 --interarrival 90 --mttf-hours 1 \
  --jsonl cluster_tenancy_off.jsonl --csv cluster_tenancy_off_timeline.csv \
  --speed-profile uniform --admission fifo --skew 0
cmp cluster_base.jsonl cluster_tenancy_off.jsonl
cmp cluster_base_timeline.csv cluster_tenancy_off_timeline.csv

# The full heterogeneous multi-tenant stack on: 2-tenant stream under
# weighted fair admission, bimodal slave speeds, Zipf-skewed placement.
run cluster_fair_admission dfscluster --hours 0.3 --warmup 60 --seed 11 \
  --blocks 60 --reducers 4 --interarrival 90 --mttf-hours 1 \
  --tenants 2 --tenant-shares 3,1 --tenant-scales 1,0.25 \
  --admission fair --speed-profile bimodal:0.25,2,5 --skew 1.2 \
  --jsonl cluster_fair_admission.jsonl

# Hedged degraded reads against slow and flaky sources, under node failures:
# one extra source per read, a quarter of the nodes serving reads slowly,
# heavy-tailed service jitter and transient fetch failures.
run cluster_hedge dfscluster --hours 0.3 --warmup 60 --seed 5 \
  --blocks 60 --reducers 4 --interarrival 90 --mttf-hours 1 \
  --hedge 1 --straggler-fraction 0.25 --straggler-jitter 0.5 \
  --straggler-alpha 1.5 --straggler-fail-prob 0.05 \
  --jsonl cluster_hedge.jsonl --csv cluster_hedge_timeline.csv

# The same hedge and straggler flags with failures effectively off: no read
# is degraded, so the fetch supervisor never draws, and the knobs must not
# move the master's stream either. The run must equal the default one.
run cluster_nofail dfscluster --hours 0.3 --warmup 60 --seed 5 \
  --blocks 60 --reducers 4 --interarrival 90 --mttf-hours 1000000 \
  --jsonl cluster_nofail.jsonl --csv cluster_nofail_timeline.csv
run cluster_nofail_hedged dfscluster --hours 0.3 --warmup 60 --seed 5 \
  --blocks 60 --reducers 4 --interarrival 90 --mttf-hours 1000000 \
  --hedge 1 --straggler-fraction 0.25 --straggler-jitter 0.5 \
  --straggler-alpha 1.5 --straggler-fail-prob 0.05 \
  --jsonl cluster_nofail_hedged.jsonl \
  --csv cluster_nofail_hedged_timeline.csv
cmp cluster_nofail.jsonl cluster_nofail_hedged.jsonl
cmp cluster_nofail_timeline.csv cluster_nofail_hedged_timeline.csv

# --- manifest ---------------------------------------------------------------
sha256sum \
  sim_edf_csv.stdout sim_edf_csv.stderr \
  sim_edf_map_tasks.csv sim_edf_reduce_tasks.csv sim_edf_jobs.csv \
  sim_bdf_netstats.stdout sim_bdf_netstats.stderr \
  sim_rep_fifo.stdout sim_rep_fifo.stderr \
  cluster_base.stdout cluster_base.stderr \
  cluster_base.jsonl cluster_base_timeline.csv \
  cluster_faults.stdout cluster_faults.stderr \
  cluster_faults.jsonl cluster_faults_attempts.csv \
  cluster_fair_admission.stdout cluster_fair_admission.stderr \
  cluster_fair_admission.jsonl \
  cluster_hedge.stdout cluster_hedge.stderr \
  cluster_hedge.jsonl cluster_hedge_timeline.csv \
  > manifest.sha256

if [ "$MODE" = "--update" ]; then
  cp manifest.sha256 "$MANIFEST"
  echo "golden corpus manifest updated: $MANIFEST"
  exit 0
fi

if ! diff -u "$MANIFEST" manifest.sha256; then
  echo "golden corpus DIVERGED: tool output is no longer byte-identical" >&2
  echo "(intentional change? rerun with --update and review the diff)" >&2
  exit 1
fi
echo "golden corpus OK: all artifacts byte-identical"
