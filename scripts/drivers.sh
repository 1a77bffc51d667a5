#!/usr/bin/env bash
# The production command lines of this repository, one function per
# scenario, each checking its own outcome. CI's smoke jobs run one scenario
# each and its reach job runs all of them under a coverage build, so a
# driver command line is written here and nowhere else.
#
#   scripts/drivers.sh fleet control     # the named scenarios
#   scripts/drivers.sh all               # every scenario, in list order
#
# Scenarios: single fleet control metrics tenant dist experiments bench.
#
# Environment:
#   OUT            directory for binaries and artifacts (default drivers-out)
#   BUILDFLAGS     extra go build flags for the binaries built into $OUT/bin
#                  (e.g. "-cover -coverpkg=repro/...")
#   BENCH_SECONDS  window of the bench runs (default 4)
#
# Processes that must exit on their own terms get SIGINT, never SIGTERM:
# transcode drains on an interrupt, and a coverage build writes its
# counters only when the process exits normally.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
OUT=${OUT:-drivers-out}
mkdir -p "$OUT"
OUT=$(cd "$OUT" && pwd)
# BUILDFLAGS is a word list on purpose.
# shellcheck disable=SC2086
(cd "$root" && go build ${BUILDFLAGS:-} -o "$OUT/bin/" ./cmd/transcode ./cmd/experiments ./bench)
transcode=$OUT/bin/transcode
cd "$OUT"

# wait_for retries a command every 0.2 s for up to 30 s.
wait_for() {
  for _ in $(seq 1 150); do
    if "$@" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "timed out waiting for: $*" >&2
  return 1
}

# get_json URL FILTER: the JSON at URL satisfies the jq filter.
get_json() { curl -sf "$1" | jq -e "$2"; }

# write_tenants: two weighted tenants and one emergency class.
write_tenants() {
  cat > tenants.json <<'EOF'
{"tenants": [
  {"id": "batch", "weight": 3},
  {"id": "clinic", "weight": 1},
  {"id": "er", "weight": 1, "priority": 9}
]}
EOF
}

# --- single: one session through the pipeline, no serving layer ---

scenario_single() {
  # -v adds a row per frame, naming its type.
  "$transcode" -class brain -motion rotate -frames 8 -width 256 -height 192 -v | tee single-run.txt
  grep -Eq '^  frame +0 \[I\]' single-run.txt
  # [19]'s comparator: with no tile count configured, two uniform tiles.
  "$transcode" -mode baseline -class chest -motion pan -frames 8 -width 256 -height 192 | tee baseline-run.txt
  grep -q '^GOP 0: 2 tiles' baseline-run.txt
  # A raw I420 file in place of a synthetic study.
  head -c $((256 * 192 * 3 / 2 * 8)) /dev/urandom > noise.yuv
  "$transcode" -yuv noise.yuv -width 256 -height 192 -class bone | tee yuv-run.txt
  grep -q ', 8 frames, mode proposed' yuv-run.txt
}

# --- fleet: churn on 3 shards, then a warm restart from the saved LUTs ---

fleet_run() {
  "$transcode" -shards 3 -users 12 -frames 8 -width 256 -height 192 -luts fleet-luts.json "$@"
}

scenario_fleet() {
  rm -f fleet-luts.json # the first run starts cold
  fleet_run -sink jsonl:fleet-events.jsonl
  test -s fleet-events.jsonl && test -s fleet-luts.json
  wc -l fleet-events.jsonl
  fleet_run -sink none
}

# --- control: the three fleet control loops (DESIGN.md §7) ---

# Elastic churn: 2→4→3 shards, 16 staggered users, forced mid-run resizes.
elastic_run() {
  "$transcode" -shards 2 -max-shards 4 -users 16 -frames 32 -width 256 -height 192 \
    -stagger 1 -target-util 0.5 -shard-sessions 2 -resize-at 4:4,14:3 "$@"
}

# Skewed churn: one hot class on 3 shards, so the home shard sheds.
rebalance_run() {
  "$transcode" -shards 3 -users 9 -frames 24 -width 256 -height 192 \
    -stagger 1 -hot-class brain -rebalance-factor 1.3 "$@"
}

scenario_control() {
  elastic_run -sink jsonl:elastic-events.jsonl | tee elastic-run.txt
  grep -q '"event":"shard_added"' elastic-events.jsonl
  grep -q '"event":"shard_removed"' elastic-events.jsonl
  grep -q '"event":"session_migrated"' elastic-events.jsonl
  grep -q '16/16 sessions completed (0 rejected, 0 failed' elastic-run.txt
  grep -q '512 frames in 64 GOP reports' elastic-run.txt
  # The same churn through the default report sink beside a /metrics
  # exporter: both see every resize and migration.
  elastic_run -metrics-addr 127.0.0.1:0 | tee elastic-report.txt
  grep -Eq 'elasticity: [1-9][0-9]* shards added, [1-9][0-9]* removed, [1-9][0-9]* session migrations' elastic-report.txt
  grep -q '16/16 sessions completed (0 rejected, 0 failed' elastic-report.txt

  rebalance_run -sink jsonl:rebalance-events.jsonl | tee rebalance-run.txt
  grep -q '"event":"session_rebalanced"' rebalance-events.jsonl
  grep -q '9/9 sessions completed (0 rejected, 0 failed' rebalance-run.txt
  grep -q '216 frames in 27 GOP reports' rebalance-run.txt
  rebalance_run -metrics-addr 127.0.0.1:0 | tee rebalance-report.txt
  grep -Eq 'rebalancing: [1-9][0-9]* session\(s\) shed off hot shards' rebalance-report.txt
  grep -q '9/9 sessions completed (0 rejected, 0 failed' rebalance-report.txt

  # Heterogeneous fleet: 8/16/32-core shards, every 4th user 4K,
  # demand-aware placement steers it to the big shard.
  "$transcode" -shards 3 -shard-cores 8,16,32 -users 12 -frames 8 \
    -width 256 -height 192 -fourk-every 4 -pixels-per-core 250000 \
    -sink jsonl:hetero-events.jsonl | tee hetero-run.txt
  grep -q '12/12 sessions completed (0 rejected, 0 failed' hetero-run.txt
  grep -q '96 frames in 12 GOP reports' hetero-run.txt
  grep -Eq '"event":"session_placed","shard":2,"session":[0-9]+,"class":"[a-z-]+-4k"' hetero-events.jsonl
  grep -q '"capacity_cores":32' hetero-events.jsonl
  grep -q '"util":' hetero-events.jsonl
}

# --- metrics: a live /metrics endpoint, scraped mid-run and after ---

scenario_metrics() {
  "$transcode" -shards 3 -users 12 -frames 32 -width 256 -height 192 \
    -stagger 1 -metrics-addr 127.0.0.1:9464 -metrics-grace 60s \
    -cost-per-joule 0.0005 -cost-per-miss 0.01 > metrics-run.txt &
  local run=$!
  trap "kill -9 $run 2>/dev/null || true" EXIT # a failed check leaves no server behind
  # Scrape mid-churn, as soon as the exporter answers.
  wait_for curl -sf -o metrics-mid.txt http://127.0.0.1:9464/metrics
  test -s metrics-mid.txt
  # Let the fleet drain, scrape the settled totals inside the grace
  # window, then end the grace early.
  for _ in $(seq 1 300); do
    if grep -q 'metrics endpoint held open' metrics-run.txt; then break; fi
    sleep 0.5
  done
  curl -sf http://127.0.0.1:9464/metrics > metrics-final.txt
  kill -INT "$run"
  wait "$run"
  cat metrics-run.txt

  grep -E '^repro_energy_joules_total\{shard="[0-9]+"\} [0-9]' metrics-final.txt
  grep -E '^repro_deadline_misses_total\{shard="[0-9]+"\} [0-9]+$' metrics-final.txt
  grep -E '^repro_cost_dollars_total\{shard="[0-9]+"\} [0-9]' metrics-final.txt
  grep -E '^repro_rounds_total\{shard="[0-9]+"\} [0-9]+$' metrics-final.txt
  # Values are the last field; le="+Inf" bucket labels are fine.
  if grep -E ' (NaN|[+-]?Inf)$' metrics-final.txt; then
    echo "non-finite value leaked into the exposition" >&2
    return 1
  fi
  grep -q '^repro_metrics_dropped_series_total 0$' metrics-final.txt
  grep -q '12/12 sessions completed (0 rejected, 0 failed' metrics-run.txt
}

# --- tenant: two weighted tenants plus one emergency arrival ---

# tenant_run LUTS EVENTS: the priced run, from (and saving back to) LUTS.
tenant_run() {
  "$transcode" -shards 1 -shard-cores 4 -users 5 -frames 48 \
    -width 256 -height 192 -stagger 1 -tenants-config tenants.json \
    -tenant-plan "batch:3,clinic:1,er:1" -luts "$1" -sink "jsonl:$2"
}

scenario_tenant() {
  write_tenants
  rm -f tenant-luts.json
  # Warm the workload LUTs first so admission decides from calibrated
  # estimates, not cold-start guesses: a cold refusal would exhaust the
  # refused session's ladder before the emergency tenant ever arrives.
  "$transcode" -shards 1 -users 4 -frames 8 -width 256 -height 192 \
    -sink none -luts tenant-luts.json
  cp tenant-luts.json tenant-luts-1cpu.json
  tenant_run tenant-luts.json tenant-events.jsonl | tee tenant-run.txt
  grep -q '"tenant":"er"' tenant-events.jsonl
  grep -q '"preempted":\[' tenant-events.jsonl
  grep -Eq '"tenant_cores":\{[^}]*"er":[0-9]+' tenant-events.jsonl
  grep -Eq '"tenant_cores":\{[^}]*"batch":[0-9]+' tenant-events.jsonl
  grep -q '5/5 sessions completed (0 rejected, 0 failed' tenant-run.txt
  grep -q '240 frames in 30 GOP reports' tenant-run.txt
  # LUTs learn modelled work, not the host's stopwatch, so the same run on
  # one CPU decides every round alike.
  GOMAXPROCS=1 tenant_run tenant-luts-1cpu.json tenant-events-1cpu.jsonl > /dev/null
  diff <(grep '"event":"round"' tenant-events.jsonl) <(grep '"event":"round"' tenant-events-1cpu.jsonl)
}

# --- dist: master + two agents, one SIGKILLed while it holds sessions ---

# agent_run NAME PORT runs in the background: exec makes $! the agent's own
# pid, so the kill below reaches the node and not a subshell.
agent_run() {
  exec "$transcode" -agent "127.0.0.1:$2" -name "$1" -master-url http://127.0.0.1:7600 \
    -heartbeat-every 200ms -checkpoint-every 1 -tenants-config tenants.json \
    -sink "jsonl:agent-$1.jsonl" > "agent-$1-run.txt" 2>&1
}

scenario_dist() {
  write_tenants
  local m=http://127.0.0.1:7600
  "$transcode" -master 127.0.0.1:7600 -events master-events.jsonl \
    -heartbeat-grace 2s -tenants-config tenants.json > master-run.txt 2>&1 &
  local master=$!
  agent_run smoke-a 7601 &
  local agent_a=$!
  agent_run smoke-b 7602 &
  local agent_b=$!
  trap "kill -9 $master $agent_a $agent_b 2>/dev/null || true" EXIT
  for url in $m http://127.0.0.1:7601 http://127.0.0.1:7602; do
    wait_for get_json "$url/v1/healthz" '.version == 2'
  done
  wait_for get_json "$m/v1/stats" '.live == 2'

  # Three proposed sessions of one tenant, then three baseline ones of the
  # other, whose checkpoints also carry [19]'s uniform grid.
  "$transcode" -submit $m -users 3 -frames 48 -width 256 -height 192 -tenant-plan batch:3 | tee submit-run.txt
  "$transcode" -submit $m -users 3 -frames 48 -width 256 -height 192 -mode baseline -tenant-plan clinic:3 | tee -a submit-run.txt
  # Kill smoke-b only once the master holds a checkpoint of one of its
  # sessions, so the failover below always has something to re-import.
  wait_for get_json "$m/v1/agents" '.agents[] | select(.name == "smoke-b") | .checkpoints | length > 0'
  kill -9 "$agent_b"
  # The master declares it dead after -heartbeat-grace and re-imports; wait
  # for the whole corpus to finish on the survivor (duplicate completions
  # from the checkpoint/kill window are tolerated).
  for _ in $(seq 1 120); do
    if get_json "$m/v1/stats" '.completed >= 6' >/dev/null 2>&1; then break; fi
    sleep 1
  done
  curl -sf "$m/v1/stats" | tee stats-final.json
  curl -sf "$m/v1/agents" > agents-final.json
  kill -INT "$master" "$agent_a"
  wait "$master" "$agent_a"
  wait "$agent_b" || true # SIGKILLed

  grep -q '"event":"agent_dead","agent":"smoke-b"' master-events.jsonl
  grep -q '"event":"session_reimported","agent":"smoke-b","to":"smoke-a"' master-events.jsonl
  if grep -q '"event":"session_lost"' master-events.jsonl; then
    echo "a session was lost in failover" >&2
    return 1
  fi
  # The agents placed the submitted sessions in their tenants.
  cat agent-smoke-a.jsonl agent-smoke-b.jsonl | grep -q '"event":"session_placed".*"tenant":"batch"'
  cat agent-smoke-a.jsonl agent-smoke-b.jsonl | grep -q '"event":"session_placed".*"tenant":"clinic"'
  # The survivor adopted the sessions with the cross-process marker.
  grep -q '"event":"session_migrated","from_shard":-1' agent-smoke-a.jsonl
  jq -e '.completed >= 6 and .lost == 0' stats-final.json
  jq -e '.agents[] | select(.name == "smoke-b") | .alive == false' agents-final.json
  # Zero lost GOP reports: 6 users x 6 GOPs of 8 frames; duplicates can only
  # push the count above the floor.
  local gops
  gops=$(cat agent-smoke-a.jsonl agent-smoke-b.jsonl | grep -c '"event":"gop"')
  echo "gop reports across both agents: $gops"
  test "$gops" -ge 36
}

# --- experiments: every table and figure of the paper's evaluation ---

scenario_experiments() {
  local run
  for run in "-table1 -frames 9" -fig3 "-table2 -queue 6" -fig4 -lut -ablation; do
    # shellcheck disable=SC2086
    "$OUT/bin/experiments" $run | tee "experiments${run%% *}.txt"
  done
}

# --- bench: the benchmark of record, untraced and traced, and a profile ---

scenario_bench() {
  local seconds=${BENCH_SECONDS:-4}
  "$OUT/bin/bench" -seconds "$seconds" | tee bench-out.txt
  "$OUT/bin/bench" -seconds "$seconds" -trace 1 -out bench-spans | tee bench-trace.txt
  "$transcode" -shards 2 -users 6 -frames 16 -width 256 -height 192 \
    -stagger 1 -sink none -cpuprofile cpu.pprof -memprofile mem.pprof
  test -s cpu.pprof && test -s mem.pprof
}

all=(single fleet control metrics tenant dist experiments bench)
if [ $# -eq 0 ]; then
  echo "usage: $0 all | SCENARIO... (${all[*]})" >&2
  exit 2
fi
if [ "$1" = all ]; then
  set -- "${all[@]}"
fi
for s in "$@"; do
  if ! declare -F "scenario_$s" > /dev/null; then
    echo "$0: unknown scenario $s (${all[*]})" >&2
    exit 2
  fi
done
# Each scenario runs in a subshell, so a failed check ends the run after
# that scenario's EXIT trap stops any node it left running.
for s in "$@"; do
  echo "=== $s"
  ("scenario_$s")
done
