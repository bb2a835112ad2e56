#!/usr/bin/env bash
# Scenario-corpus sweep through the iobts_run CLI: every checked-in
# scenarios/*.scn must compile and run to completion (exit 0), and every
# scenarios/invalid/*.scn must be rejected with a "scenario error"
# diagnostic on stderr (exit != 0, and never a crash/signal). Malformed
# --trace-flush-bytes values must end in a usage error (exit 2).
#
# Usage: tools/run_scenario_corpus.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
RUNNER="$BUILD_DIR/tools/iobts_run"
if [[ ! -x "$RUNNER" ]]; then
  echo "missing $RUNNER -- build the iobts_run target first" >&2
  exit 1
fi

FAILED=0

echo "== scenario corpus: valid documents =="
for scn in scenarios/*.scn; do
  if "$RUNNER" --scenario "$scn" >/dev/null 2>/tmp/scn_err.$$; then
    echo "ok   $scn"
  else
    echo "FAIL $scn (expected clean run)" >&2
    cat /tmp/scn_err.$$ >&2
    FAILED=1
  fi
done

echo "== scenario corpus: invalid documents =="
for scn in scenarios/invalid/*.scn; do
  set +e
  "$RUNNER" --scenario "$scn" >/dev/null 2>/tmp/scn_err.$$
  status=$?
  set -e
  if [[ $status -ge 128 ]]; then
    echo "FAIL $scn (crashed with signal $((status - 128)))" >&2
    FAILED=1
  elif [[ $status -eq 0 ]]; then
    echo "FAIL $scn (invalid document ran cleanly)" >&2
    FAILED=1
  elif ! grep -q "scenario error" /tmp/scn_err.$$; then
    echo "FAIL $scn (rejected without a 'scenario error' diagnostic)" >&2
    cat /tmp/scn_err.$$ >&2
    FAILED=1
  else
    echo "ok   $scn (rejected: $(head -1 /tmp/scn_err.$$))"
  fi
done
echo "== iobts_run: malformed --trace-flush-bytes =="
# Each value must end in a usage error (exit 2) with a diagnostic naming the
# option -- never a crash from an allocation sized by the value, and never
# a silently ignored flag.
TRACE_TMP=$(mktemp -d)
for bad in -5 18446744073709551600 abc; do
  set +e
  "$RUNNER" --scenario scenarios/mixed_sync_async.scn \
    --trace "$TRACE_TMP/t.bin" --trace-flush-bytes "$bad" \
    >/dev/null 2>/tmp/scn_err.$$
  status=$?
  set -e
  if [[ $status -ne 2 ]]; then
    echo "FAIL --trace-flush-bytes $bad (exit $status, expected 2)" >&2
    cat /tmp/scn_err.$$ >&2
    FAILED=1
  elif ! grep -q -- "--trace-flush-bytes" /tmp/scn_err.$$; then
    echo "FAIL --trace-flush-bytes $bad (no diagnostic naming the option)" >&2
    cat /tmp/scn_err.$$ >&2
    FAILED=1
  else
    echo "ok   --trace-flush-bytes $bad (rejected: $(head -1 /tmp/scn_err.$$))"
  fi
done
rm -rf "$TRACE_TMP"
rm -f /tmp/scn_err.$$

if [[ "$FAILED" == 1 ]]; then
  echo "== scenario corpus: FAILED ==" >&2
  exit 1
fi
echo "== scenario corpus: green =="
