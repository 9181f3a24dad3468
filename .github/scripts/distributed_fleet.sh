#!/usr/bin/env bash
# Launch one `anacin serve` scheduler plus two loopback `anacin agent`
# processes and wait for all three — a local smoke of the fleet:
#   ANACIN=./build/src/cli/anacin SWEEP_FLAGS="--pattern message_race \
#     --ranks 4 --runs 3 --step 50" .github/scripts/distributed_fleet.sh \
#     demo sched-store a1-store a2-store
#
# Usage: distributed_fleet.sh TAG SCHED_STORE AGENT1_STORE AGENT2_STORE \
#          [extra serve args...]
# Environment:
#   ANACIN       path to the anacin binary (required)
#   SWEEP_FLAGS  sweep flags, shared verbatim with the local baseline
#   SERVE_ENV    env assignments applied to the scheduler (optional)
#   AGENT1_ENV   env assignments applied to agent 1 only (optional)
#   AGENT2_ENV   env assignments applied to agent 2 only (optional)
#
# Fault campaigns: set ANACIN_FAULT_PLAN inside any of the *_ENV knobs.
# Its net.* keys fault that process's sends at the frame boundary
# (net/chaos.hpp) and its unit.* keys fault the units an agent executes
# (docs/RESILIENCE.md has the grammar), e.g.
#   SERVE_ENV="ANACIN_FAULT_PLAN=seed=7,net.corrupt=0.03,net.reorder=0.05" \
#   AGENT1_ENV="ANACIN_FAULT_PLAN=seed=1007,net.drop=0.02,net.corrupt=0.03" \
#     distributed_fleet.sh chaos s a1 a2 --unit-lease-ms 5000
#   AGENT1_ENV="ANACIN_FAULT_PLAN=unit.*=crash:KILL" \
#     distributed_fleet.sh kill s a1 a2 --unit-lease-ms 2000
# The report must still be byte-identical to the local baseline — that is
# the invariant tests/net/test_distributed.cpp enforces.
#
# The scheduler announces its ephemeral port through an ABSOLUTE
# --port-file (relative paths once stranded agents in an empty cwd race);
# agents poll for it with a bounded wait so a scheduler that dies before
# binding cannot strand them. Writes TAG.{json,csv,out},
# TAG-metrics.json, TAG-aN.{out,rc}, TAG-aN-metrics.json; exits with the
# scheduler's exit code (signal deaths surface as 128+signo).
# -f: SERVE_ENV/AGENT1_ENV are expanded unquoted into `env` arguments and
# may contain glob characters (e.g. ANACIN_FAULT_PLAN=unit.*=crash:KILL).
set -uf

TAG=$1
SCHED_STORE=$2
AGENT1_STORE=$3
AGENT2_STORE=$4
shift 4

PORT_FILE="$(pwd)/$TAG-port.txt"
rm -f "$PORT_FILE"

launch_agent() {
  local i=$1 store=$2 extra_env=$3
  (
    n=0
    while [ ! -s "$PORT_FILE" ] && [ "$n" -lt 200 ]; do
      sleep 0.05
      n=$((n + 1))
    done
    [ -s "$PORT_FILE" ] || exit 3 # scheduler never bound; don't hang
    # shellcheck disable=SC2086 — env assignments are meant to word-split
    exec env $extra_env "$ANACIN" --store "$store" \
      --metrics-out "$TAG-a$i-metrics.json" \
      agent --connect "127.0.0.1:$(cat "$PORT_FILE")" --name "a$i"
  ) >"$TAG-a$i.out" 2>&1 &
}

launch_agent 1 "$AGENT1_STORE" "${AGENT1_ENV:-}"
AGENT1_PID=$!
launch_agent 2 "$AGENT2_STORE" "${AGENT2_ENV:-}"
AGENT2_PID=$!

# shellcheck disable=SC2086
env ${SERVE_ENV:-} "$ANACIN" --store "$SCHED_STORE" \
  --metrics-out "$TAG-metrics.json" \
  serve $SWEEP_FLAGS --agents 2 --port-file "$PORT_FILE" \
  --csv "$TAG.csv" --json "$TAG.json" "$@" >"$TAG.out" 2>&1
SERVE_RC=$?

wait "$AGENT1_PID"
echo $? >"$TAG-a1.rc"
wait "$AGENT2_PID"
echo $? >"$TAG-a2.rc"

exit "$SERVE_RC"
