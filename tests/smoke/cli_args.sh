#!/usr/bin/env bash
# CLI-arguments smoke: malformed arguments, env values, names and paths are
# rejected with exit 2 (never misread, defaulted or aborted), a rejected
# workload or trace file prints nothing, --trace writes schema records, and
# a telemetry trace that cannot be written fails its run.
#
#   tests/smoke/cli_args.sh BENCH_DIR EXAMPLES_DIR
#
# Runs in the current directory and leaves its files there; ctest gives it
# a directory of its own.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BENCH_DIR EXAMPLES_DIR" >&2
  exit 2
fi
bench=$1
examples=$2

expect_exit() {
  want=$1
  shift
  rc=0
  "$@" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "exit $rc, want $want: $*" >&2
    return 1
  fi
}

# A rejected workload or trace file writes nothing to stdout.
expect_silent_exit_2() {
  rc=0
  "$@" > rejected_stdout.txt 2> /dev/null || rc=$?
  if [ "$rc" -ne 2 ] || [ -s rejected_stdout.txt ]; then
    echo "exit $rc, want 2 with empty stdout: $*" >&2
    return 1
  fi
}

# ---- Malformed numbers and flags -------------------------------------------

for trials in abc 1e3 -1 ' 5' 99999999999999999999; do
  expect_exit 2 env PCS_TRIALS="$trials" "$bench/fig3_yield"
done
expect_exit 0 env PCS_TRIALS=0 "$bench/fig3_yield"
expect_exit 2 "$bench/fig3_yield" --sweep-lanes
for refs in abc -1 1e3; do
  expect_exit 2 env PCS_REFS="$refs" "$bench/fig4_simulation"
done
expect_exit 2 "$bench/fig4_simulation" --sweep-lanes
for args in abc '64abc 4' '64 4x' '0 4' '64 0' '64 3' '2048 64' \
    --sweep-lanes '64 4 --sweep-lanes'; do
  # shellcheck disable=SC2086  # split args on purpose
  expect_exit 2 "$examples/voltage_explorer" $args
done
expect_silent_exit_2 "$examples/voltage_explorer" 2048 64
expect_exit 0 "$examples/voltage_explorer" 64 4
expect_exit 2 "$examples/pcs_sim" --policy dpcs --refs abc
for levels in 1 256 300 4294967299 3x; do
  expect_exit 2 "$examples/pcs_sim" --policy dpcs --refs 1000 \
    --levels "$levels"
done
expect_exit 0 "$examples/pcs_sim" --policy dpcs --refs 1000 --levels 255
for args in 'abc 64 4' '100 64 4x' '100 -1' '100 64 4294967296' \
    '100 18014398509481984' '100 --checkpoint-shards x' \
    '100 --checkpoint-stop-after 1e3' '100 --checkpoint-stop-after 1'; do
  # shellcheck disable=SC2086  # split args on purpose
  expect_exit 2 "$examples/chip_binning" $args
done
expect_exit 0 "$examples/chip_binning" 100 64 4
for args in abc \
    '300 --sizes 32 --assocs 4294967300 --sigmas 0.1585' \
    '300 --sizes 32,' '300 --sizes 32,,64' '300 --assocs 4x' \
    '300 --sigmas 0.1585,' \
    '300 --checkpoint-shards -1' '300 --checkpoint-stop-after 2x' \
    '300 --checkpoint-stop-after 1'; do
  # shellcheck disable=SC2086  # split args on purpose
  expect_exit 2 "$examples/population_grid" $args
done
expect_exit 0 "$examples/population_grid" 300 --sizes 32 --assocs 4 \
  --sigmas 0.1585
for refs in abc 0 -1 1e3; do
  expect_exit 2 "$examples/quickstart" hmmer "$refs"
done
expect_exit 0 "$examples/quickstart" hmmer 20000
for args in 0 abc 5x '10000 4294967296' '10000 -3'; do
  # shellcheck disable=SC2086  # split args on purpose
  expect_exit 2 "$examples/policy_playground" $args
done
expect_exit 0 "$examples/policy_playground" 10000 10
for b in ablation_policy ablation_vdd1floor ext_multicore ext_nlevels_dpcs \
    ext_system_energy; do
  for refs in abc 0 -1 1e3; do
    expect_exit 2 env PCS_REFS="$refs" "$bench/$b"
  done
  expect_exit 0 env PCS_REFS=4000 "$bench/$b"
done

# ---- Rejected names, ranges and paths --------------------------------------

# A message and exit 2, never an uncaught exception (exit 134) or a silent
# default. `bad` is a regular file, so no path under it can be created,
# even as root.
bad=regular_file.txt
echo "not a directory" > "$bad"
expect_silent_exit_2 "$examples/quickstart" nosuch 1000
expect_exit 0 "$examples/quickstart" gcc 1000
for super in 0 1 2; do
  expect_exit 2 "$examples/policy_playground" 2000 "$super"
done
expect_exit 0 "$examples/policy_playground" 2000 3
for config in C b; do
  expect_exit 2 "$examples/pcs_sim" --config "$config" --refs 1000
done
expect_exit 0 "$examples/pcs_sim" --config B --refs 1000
expect_exit 2 "$examples/pcs_sim" --record smoke.trace 100 --workload nosuch
for format in text pcst; do
  expect_exit 2 "$examples/pcs_sim" --record "$bad/x.trace" 100 \
    --format "$format"
done
expect_exit 0 "$examples/pcs_sim" --record smoke.trace 100
expect_exit 2 "$examples/pcs_sim" --refs 1000 --trace "$bad/t.jsonl"
expect_exit 2 env PCS_TRACE="$bad/t.jsonl" "$examples/pcs_sim" --refs 1000
expect_exit 0 "$examples/pcs_sim" --refs 1000 --trace smoke.jsonl
expect_exit 2 env PCS_TRACE="$bad/t.jsonl" "$examples/chip_binning" 100
expect_exit 0 env PCS_TRACE=smoke_pop.jsonl "$examples/chip_binning" 100
expect_exit 2 env PCS_REFS=1000 PCS_TRACE="$bad/t.jsonl" \
  "$bench/fig4_simulation"
expect_silent_exit_2 env PCS_REFS=1000 \
  "$bench/fig4_simulation" --trace-file missing.trace
expect_exit 0 env PCS_REFS=1000 PCS_TRACE=smoke_fig4.jsonl \
  "$bench/fig4_simulation" --trace-file smoke.trace

# ---- --trace writes schema records -----------------------------------------

"$examples/pcs_sim" --policy dpcs --workload hmmer --refs 50000 \
  --trace trace.jsonl
test -s trace.jsonl
head -1 trace.jsonl | grep -q '"type":"trace_header"'
grep -q '"type":"interval"' trace.jsonl
grep -q '"type":"run_summary"' trace.jsonl

# ---- A trace that cannot be written fails its run --------------------------

# JSONL only: the CSV sink names one file per record type after the path,
# so a CSV path under /dev would create regular files there.
if [ -e /dev/full ]; then
  expect_exit 2 "$examples/pcs_sim" --workload gcc --refs 20000 \
    --trace /dev/full
  expect_exit 2 env PCS_TRACE=/dev/full "$examples/chip_binning" 2000
  expect_exit 2 env PCS_TRACE=/dev/full "$examples/population_grid" 300 \
    --sizes 32 --assocs 4
  printf '%s\n' '{"kind": "sim", "id": "full", "refs": 20000, "out": "job-full.txt", "trace": "/dev/full"}' \
    > full-jobs.jsonl
  rc=0
  "$examples/pcs_sim" --serve full-jobs.jsonl > serve.log 2>&1 || rc=$?
  if [ "$rc" -ne 1 ] ||
      ! grep -qF 'job full: failed: write failed for trace file: /dev/full' \
        serve.log; then
    cat serve.log >&2
    echo "unwritable job trace: exit $rc, want 1 and the job failed" >&2
    exit 1
  fi
else
  echo "skipped the failed-write checks: /dev/full is absent"
fi

echo "cli args smoke passed"
