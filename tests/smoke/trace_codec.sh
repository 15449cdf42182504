#!/usr/bin/env bash
# Trace codec smoke: record -> convert -> replay is byte-identical across
# containers and thread counts, malformed text traces are rejected with a
# located error, variant renderings of one trace replay the same, and a
# failed write is reported in both containers.
#
#   tests/smoke/trace_codec.sh PCS_SIM TRACE_CONVERT
#
# Runs in the current directory and leaves its files there; ctest gives it
# a directory of its own.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 PCS_SIM TRACE_CONVERT" >&2
  exit 2
fi
pcs_sim=$1
trace_convert=$2

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# ---- Record -> convert -> replay -------------------------------------------

"$pcs_sim" --record gcc.trace 200000 --workload gcc
"$trace_convert" gcc.trace gcc.pcst --verify
# .pcst must actually compress (TRACES.md targets >= 4x; gate at 3x here so
# short traces have headroom).
text_bytes=$(wc -c < gcc.trace)
pcst_bytes=$(wc -c < gcc.pcst)
echo "$text_bytes -> $pcst_bytes bytes"
[ "$text_bytes" -ge $((3 * pcst_bytes)) ] ||
  fail ".pcst is not 3x smaller than the text trace"
# Converting back gives the recorded text, all but the header line: the
# header names the source, 'gcc' there and 'gcc.trace' here.
"$trace_convert" gcc.pcst back.trace
tail -n +2 gcc.trace > gcc.body
tail -n +2 back.trace > back.body
cmp gcc.body back.body
# CSV replay reports are byte-identical across container and thread count
# (the text table prints the CLI path, CSV embeds the recorded workload
# name -- see TRACES.md).
PCS_THREADS=1 "$pcs_sim" --workload gcc.trace --refs 150000 --csv \
  > replay-text-t1.csv
PCS_THREADS=1 "$pcs_sim" --workload gcc.pcst --refs 150000 --csv \
  > replay-pcst-t1.csv
PCS_THREADS=8 "$pcs_sim" --workload gcc.pcst --refs 150000 --csv \
  > replay-pcst-t8.csv
cmp replay-text-t1.csv replay-pcst-t1.csv
cmp replay-pcst-t1.csv replay-pcst-t8.csv
# The same replay as a job-service kind.
printf '%s\n' '{"kind": "trace_replay", "id": "gcc-replay", "file": "gcc.pcst", "refs": 150000, "csv": true, "out": "job-replay.csv"}' \
  > replay-jobs.jsonl
PCS_THREADS=4 "$pcs_sim" --serve replay-jobs.jsonl
cmp job-replay.csv replay-pcst-t1.csv

# ---- Malformed traces: located rejections ----------------------------------

reject() {
  rc=0
  "$trace_convert" bad.trace bad.pcst > /dev/null 2> convert.err || rc=$?
  if [ "$rc" -ne 1 ] || ! grep -qF 'bad.trace:1: (byte 0)' convert.err; then
    cat convert.err >&2
    fail "trace_convert on '$1': exit $rc, want 1 and a located error"
  fi
  rc=0
  "$pcs_sim" --workload bad.trace --refs 1000 > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || fail "pcs_sim on '$1': exit $rc, want 2"
}
for line in 'R -1 3' 'R 1000 -1' 'R 1000-2' 'R 1000 4294967296' \
    'R 1000 99999999999999999999' 'R 1ffffffffffffffffff 0' \
    'R 1000 3 junk' 'R 1000 3x' 'R +10 +2'; do
  printf '%s\n' "$line" > bad.trace
  reject "$line"
done
printf 'R 1000 2\0junk\n' > bad.trace
reject 'R 1000 2\0junk'

# ---- Variant renderings replay the same ------------------------------------

# The same events as gcc.trace, rendered with tabs, CRLF, 0x/0X prefixes,
# upper-case hex and comments. Same basename, so the CSV names the same
# workload.
mkdir -p variant
awk 'NR % 100 == 0 { print "# variant comment" }
     /^#/ { print; next }
     { m = NR % 4 }
     m == 0 { printf "%s\t%s\t%s\n", $1, $2, $3 }
     m == 1 { printf "%s 0x%s %s\n", $1, toupper($2), $3 }
     m == 2 { printf "%s %s %s\r\n", $1, $2, $3 }
     m == 3 { printf "  %s\t0X%s  %s # note\n", $1, $2, $3 }' \
  gcc.trace > variant/gcc.trace
"$trace_convert" variant/gcc.trace variant/gcc.pcst --verify
PCS_THREADS=1 "$pcs_sim" --workload variant/gcc.trace --refs 150000 --csv \
  > replay-variant-t1.csv
cmp replay-variant-t1.csv replay-text-t1.csv

# ---- A failed write is an error in both containers -------------------------

if [ -e /dev/full ]; then
  expect_write_failure() {
    want=$1
    shift
    rc=0
    "$@" > /dev/null 2> write.err || rc=$?
    if [ "$rc" -ne "$want" ] ||
        ! grep -qF 'write failed for trace file: /dev/full' write.err; then
      cat write.err >&2
      fail "$*: exit $rc, want $want and the failed write named"
    fi
  }
  expect_write_failure 2 "$pcs_sim" --record /dev/full 100000 --workload gcc
  expect_write_failure 2 "$pcs_sim" --record /dev/full 100000 --workload gcc \
    --format pcst
  expect_write_failure 1 "$trace_convert" gcc.pcst /dev/full
  expect_write_failure 1 "$trace_convert" gcc.trace /dev/full
else
  echo "skipped the failed-write checks: /dev/full is absent"
fi

echo "trace codec smoke passed"
