#!/usr/bin/env bash
# Localhost smoke test for the resmon::net socket runtime.
#
# Single tier (default): starts one resmon_controller on an ephemeral
# port, launches N resmon_agent processes against it, and checks that the
# controller exits 0 after printing "RESULT complete=1 rmse_finite=1" —
# i.e. the central store saw every node and the forecasting stage produced
# a finite RMSE over real TCP.
#
# Two tiers (--tiers 2): the same fleet behind the aggregator tier — one
# root (--shards 2), two resmon_aggregator processes forwarding compacted
# slot summaries, and the agents split between them by the contiguous
# shard partition. The root must additionally report every shard summary,
# and the first aggregator's own metrics endpoint must serve nonzero
# resmon_agg_forwarded_slots_total.
#
# Also scrapes the controller's live metrics endpoint (second listener,
# --metrics-port) and fails unless the Prometheus exposition reports
# nonzero resmon_net_frames_total and resmon_net_slots_total — proving the
# observability path works end to end, not just that the run completed.
# Both the 1- and 2-tier legs then require the controller's --metrics-out
# file to hold exactly the frame and byte counts its "frames received:"
# line prints: the accessors and /metrics read one count per event.
#
# Real-host leg (--source procfs): one agent samples its own process tree
# from the live kernel while recording, then the recording is replayed
# through a fresh controller. The leg asserts exactly STEPS host samples
# and STEPS sampling-latency observations, zero parse errors, a cpu
# utilization <= 1 and a memory utilization > 0, and a bit-identical h=1
# RMSE between the live and replayed runs. This is the test suite's only
# read of a live procfs: ctest samples FakeProcfs fixtures alone.
#
# Usage: scripts/net_smoke.sh BUILD_DIR [NODES] [STEPS] [SEED]
#        [--tiers 1|2] [--source trace|procfs]
set -euo pipefail

TIERS=1
SOURCE=trace
POSITIONAL=()
while [ $# -gt 0 ]; do
  case "$1" in
    --tiers) TIERS=${2:?--tiers needs a value}; shift 2 ;;
    --source) SOURCE=${2:?--source needs a value}; shift 2 ;;
    *) POSITIONAL+=("$1"); shift ;;
  esac
done
set -- "${POSITIONAL[@]}"

BUILD_DIR=${1:?usage: net_smoke.sh BUILD_DIR [NODES] [STEPS] [SEED] [--tiers 1|2] [--source trace|procfs]}
if [ "$TIERS" = 2 ]; then DEFAULT_NODES=6; else DEFAULT_NODES=8; fi
NODES=${2:-$DEFAULT_NODES}
STEPS=${3:-200}
SEED=${4:-1}
SHARDS=2

CONTROLLER="$BUILD_DIR/tools/resmon_controller"
AGENT="$BUILD_DIR/tools/resmon_agent"
AGGREGATOR="$BUILD_DIR/tools/resmon_aggregator"
[ -x "$CONTROLLER" ] || { echo "missing $CONTROLLER" >&2; exit 2; }
[ -x "$AGENT" ] || { echo "missing $AGENT" >&2; exit 2; }
if [ "$TIERS" = 2 ]; then
  [ -x "$AGGREGATOR" ] || { echo "missing $AGGREGATOR" >&2; exit 2; }
fi

WORK=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

# Wait for "<name> listening on HOST:PORT" (or the "metrics endpoint on"
# variant — a distinct phrasing so neither grep can pick up the other's
# port) in a log file and print the resolved port.
wait_for_port() {
  local log=$1 pattern=$2 pid=$3 port=
  for _ in $(seq 1 100); do
    port=$(grep -oE "^$pattern [0-9.]+:[0-9]+" "$log" 2>/dev/null \
             | grep -oE '[0-9]+$' || true)
    [ -n "$port" ] && { echo "$port"; return 0; }
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  return 1
}

# --source procfs: the real-host collection leg (DESIGN.md "Host
# collection"). One agent samples its own process tree from the live
# kernel while recording the series; the controller runs with
# --resources 4 because there is no ground-truth trace for real
# measurements (only rmse_finite matters). The recording is then
# replayed through a fresh controller, and both runs must print the
# same h=1 forecast RMSE — record/replay determinism over real TCP.
if [ "$SOURCE" = procfs ]; then
  STEPS=${3:-40}
  run_leg() {
    local tag=$1; shift
    "$CONTROLLER" --port 0 --nodes 1 --resources 4 --k 1 --steps "$STEPS" \
      > "$WORK/ctrl_$tag.log" 2>&1 &
    local ctrl_pid=$!
    local port
    port=$(wait_for_port "$WORK/ctrl_$tag.log" \
      'resmon_controller listening on' "$ctrl_pid") || {
      echo "$tag controller never announced its port:" >&2
      cat "$WORK/ctrl_$tag.log" >&2
      return 1
    }
    "$AGENT" --port "$port" --node 0 --steps "$STEPS" "$@" \
      --metrics-out "$WORK/agent_$tag.prom" > "$WORK/agent_$tag.log" 2>&1 || {
      echo "$tag agent failed:" >&2
      cat "$WORK/agent_$tag.log" >&2
      return 1
    }
    wait "$ctrl_pid" || { cat "$WORK/ctrl_$tag.log" >&2; return 1; }
    grep -q 'RESULT complete=1 rmse_finite=1' "$WORK/ctrl_$tag.log" || {
      echo "$tag controller result line missing or not clean" >&2
      cat "$WORK/ctrl_$tag.log" >&2
      return 1
    }
  }

  run_leg live --source procfs --pid self --interval-ms 20 \
    --record "$WORK/host.rec" || exit 1
  # host_check SERIES CONDITION: the live agent's exported value of SERIES
  # (exposition spelling) must satisfy the awk CONDITION on v.
  host_check() {
    local series=$1 condition=$2 v
    v=$(awk -v s="$series" '$1 == s { print $2 }' "$WORK/agent_live.prom")
    if [ -z "$v" ] || ! awk -v v="$v" "BEGIN { exit !($condition) }"; then
      echo "live agent: $series = '${v:-<missing>}', want $condition" >&2
      cat "$WORK/agent_live.prom" >&2
      exit 1
    fi
  }
  host_check resmon_host_samples_total "v == $STEPS"
  host_check resmon_host_sample_latency_ms_count "v == $STEPS"
  host_check resmon_host_parse_errors_total "v == 0"
  host_check 'resmon_host_utilization{resource="cpu"}' "v <= 1"
  host_check 'resmon_host_utilization{resource="memory"}' "v > 0"
  [ -s "$WORK/host.rec" ] || { echo "recording missing or empty" >&2; exit 1; }

  run_leg replay --source replay --replay "$WORK/host.rec" || exit 1
  LIVE_RMSE=$(grep 'forecast RMSE h=1:' "$WORK/ctrl_live.log")
  REPLAY_RMSE=$(grep 'forecast RMSE h=1:' "$WORK/ctrl_replay.log")
  [ -n "$LIVE_RMSE" ] && [ "$LIVE_RMSE" = "$REPLAY_RMSE" ] || {
    echo "replay diverged from the live run:" >&2
    echo "  live:   $LIVE_RMSE" >&2
    echo "  replay: $REPLAY_RMSE" >&2
    exit 1
  }
  echo "--- live controller ---"
  cat "$WORK/ctrl_live.log"
  echo "replay reproduced the live run ($LIVE_RMSE)"
  echo "net smoke test OK (procfs source, $STEPS host samples," \
       "$STEPS slots, record/replay RMSE identical)"
  exit 0
fi

SHARD_FLAGS=()
if [ "$TIERS" = 2 ]; then SHARD_FLAGS=(--shards "$SHARDS"); fi
"$CONTROLLER" --port 0 --nodes "$NODES" --steps "$STEPS" --seed "$SEED" \
  --metrics-port 0 --metrics-linger-ms 8000 "${SHARD_FLAGS[@]}" \
  --metrics-out "$WORK/controller.prom" > "$WORK/controller.log" 2>&1 &
CONTROLLER_PID=$!

PORT=$(wait_for_port "$WORK/controller.log" \
  'resmon_controller listening on' "$CONTROLLER_PID") &&
MPORT=$(wait_for_port "$WORK/controller.log" \
  'resmon_controller metrics endpoint on' "$CONTROLLER_PID") || {
  echo "controller never announced its ports:" >&2
  cat "$WORK/controller.log" >&2
  exit 1
}

# Two-tier mode: the aggregators sit between the root and the agents.
AGG_PIDS=()
AGG_PORTS=()
AGG_MPORT=
if [ "$TIERS" = 2 ]; then
  for ((shard = 0; shard < SHARDS; ++shard)); do
    EXTRA=()
    if [ "$shard" -eq 0 ]; then
      EXTRA=(--metrics-port 0 --metrics-linger-ms 8000)
    fi
    "$AGGREGATOR" --shard "$shard" --shards "$SHARDS" \
      --upstream-port "$PORT" --port 0 --nodes "$NODES" --steps "$STEPS" \
      --seed "$SEED" "${EXTRA[@]}" > "$WORK/agg$shard.log" 2>&1 &
    AGG_PIDS+=($!)
  done
  for ((shard = 0; shard < SHARDS; ++shard)); do
    APORT=$(wait_for_port "$WORK/agg$shard.log" \
      'resmon_aggregator listening on' "${AGG_PIDS[$shard]}") || {
      echo "aggregator $shard never announced its port:" >&2
      cat "$WORK/agg$shard.log" >&2
      exit 1
    }
    AGG_PORTS+=("$APORT")
  done
  AGG_MPORT=$(wait_for_port "$WORK/agg0.log" \
    'resmon_aggregator metrics endpoint on' "${AGG_PIDS[0]}") || {
    echo "aggregator 0 never announced its metrics port:" >&2
    cat "$WORK/agg0.log" >&2
    exit 1
  }
fi

# The shard owning a node, by the contiguous partition agg::shard_range
# uses: the first NODES % SHARDS shards get one extra node.
owner_of() {
  local node=$1 shard=0 first=0 base=$((NODES / SHARDS)) count
  while :; do
    count=$base
    [ "$shard" -lt $((NODES % SHARDS)) ] && count=$((base + 1))
    if [ "$node" -lt $((first + count)) ]; then echo "$shard"; return; fi
    first=$((first + count))
    shard=$((shard + 1))
  done
}

AGENT_PIDS=()
for ((node = 0; node < NODES; ++node)); do
  TARGET_PORT=$PORT
  if [ "$TIERS" = 2 ]; then
    TARGET_PORT=${AGG_PORTS[$(owner_of "$node")]}
  fi
  "$AGENT" --port "$TARGET_PORT" --node "$node" --nodes "$NODES" \
    --steps "$STEPS" --seed "$SEED" > "$WORK/agent$node.log" 2>&1 &
  AGENT_PIDS+=($!)
done

STATUS=0
for pid in "${AGENT_PIDS[@]}"; do
  wait "$pid" || STATUS=1
done

# One HTTP/1.0 scrape of a live metrics endpoint over bash's /dev/tcp.
scrape_metrics() {
  local port=$1 out=$2
  exec 3<>"/dev/tcp/127.0.0.1/$port" || return 1
  printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
  cat <&3 > "$out"
  exec 3<&- 3>&-
}

# Retry until a scrape shows the wanted counter nonzero (the processes
# linger --metrics-linger-ms for exactly this window).
scrape_until() {
  local port=$1 out=$2 pattern=$3 pid=$4
  for _ in $(seq 1 80); do
    if scrape_metrics "$port" "$out" 2>/dev/null &&
       grep -qE "$pattern" "$out"; then
      return 0
    fi
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.1
  done
  return 1
}

SCRAPED=0
if scrape_until "$MPORT" "$WORK/scrape.txt" \
     '^resmon_net_slots_total [1-9]' "$CONTROLLER_PID"; then
  SCRAPED=1
fi
AGG_SCRAPED=1
if [ "$TIERS" = 2 ]; then
  AGG_SCRAPED=0
  if scrape_until "$AGG_MPORT" "$WORK/agg_scrape.txt" \
       '^resmon_agg_forwarded_slots_total\{[^}]*\} [1-9]' \
       "${AGG_PIDS[0]}"; then
    AGG_SCRAPED=1
  fi
fi

for pid in "${AGG_PIDS[@]}"; do
  wait "$pid" || STATUS=1
done
wait "$CONTROLLER_PID" || STATUS=1

echo "--- controller ---"
cat "$WORK/controller.log"
for ((shard = 0; shard < ${#AGG_PIDS[@]}; ++shard)); do
  sed "s/^/aggregator $shard: /" "$WORK/agg$shard.log" | tail -3
done
for ((node = 0; node < NODES; ++node)); do
  sed "s/^/agent $node: /" "$WORK/agent$node.log" | tail -1
done

if [ "$STATUS" -ne 0 ]; then
  echo "net smoke test FAILED" >&2
  exit 1
fi
grep -q 'RESULT complete=1 rmse_finite=1' "$WORK/controller.log" || {
  echo "controller result line missing or not clean" >&2
  exit 1
}
if [ "$SCRAPED" -ne 1 ]; then
  echo "metrics endpoint never served a scrape with nonzero slots" >&2
  [ -f "$WORK/scrape.txt" ] && tail -20 "$WORK/scrape.txt" >&2
  exit 1
fi
grep -qE '^resmon_net_frames_total [1-9]' "$WORK/scrape.txt" || {
  echo "resmon_net_frames_total missing or zero in the scrape" >&2
  exit 1
}
if [ "$TIERS" = 2 ]; then
  grep -q "all $SHARDS shards connected" "$WORK/controller.log" || {
    echo "root never reported all shards connected" >&2
    exit 1
  }
  for ((shard = 0; shard < SHARDS; ++shard)); do
    grep -q 'RESULT forwarded=1' "$WORK/agg$shard.log" || {
      echo "aggregator $shard result line missing or not clean" >&2
      exit 1
    }
  done
  grep -qE '^resmon_net_summaries_total [1-9]' "$WORK/scrape.txt" || {
    echo "resmon_net_summaries_total missing or zero in the root scrape" >&2
    exit 1
  }
  if [ "$AGG_SCRAPED" -ne 1 ]; then
    echo "aggregator metrics endpoint never served forwarded slots" >&2
    [ -f "$WORK/agg_scrape.txt" ] && tail -20 "$WORK/agg_scrape.txt" >&2
    exit 1
  fi
  SUMMARIES=$(grep -E '^resmon_net_summaries_total' "$WORK/scrape.txt" | awk '{print $2}')
  echo "aggregator scrape OK (summaries_total=$SUMMARIES)"
fi
FRAMES=$(grep -E '^resmon_net_frames_total' "$WORK/scrape.txt" | awk '{print $2}')
SLOTS=$(grep -E '^resmon_net_slots_total' "$WORK/scrape.txt" | awk '{print $2}')
echo "metrics scrape OK (frames_total=$FRAMES slots_total=$SLOTS)"

# "frames received:   F (B bytes, ...)" must match the written exposition.
PRINTED=$(grep -oE 'frames received: +[0-9]+ \([0-9]+ bytes' \
            "$WORK/controller.log" || true)
PRINTED_FRAMES=$(echo "$PRINTED" | awk '{print $3}')
PRINTED_BYTES=$(echo "$PRINTED" | awk '{print $4}' | tr -d '(')
OUT_FRAMES=$(grep -E '^resmon_net_frames_total ' "$WORK/controller.prom" \
               | awk '{print $2}')
OUT_BYTES=$(grep -E '^resmon_net_bytes_total ' "$WORK/controller.prom" \
              | awk '{print $2}')
if [ -z "$PRINTED_FRAMES" ] || [ "$PRINTED_FRAMES" != "$OUT_FRAMES" ] ||
   [ "$PRINTED_BYTES" != "$OUT_BYTES" ]; then
  echo "controller accessors and --metrics-out disagree:" >&2
  echo "  printed: frames=$PRINTED_FRAMES bytes=$PRINTED_BYTES" >&2
  echo "  written: frames=$OUT_FRAMES bytes=$OUT_BYTES" >&2
  exit 1
fi
echo "accessors match --metrics-out (frames=$OUT_FRAMES bytes=$OUT_BYTES)"
echo "net smoke test OK ($NODES agents, $STEPS slots, $TIERS tier(s))"
