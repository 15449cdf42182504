#!/usr/bin/env bash
# Thread-invariance smoke: every engine's output is byte-identical at 1 and
# 8 threads -- fig4's report and its trace minus the *_profile records,
# fig3's Monte-Carlo section, chip_binning at any shard size, and a
# population grid's report and per-point files, which match standalone
# chip_binning runs -- and the job service writes what the standalone CLIs
# print.
#
#   tests/smoke/thread_invariance.sh BENCH_DIR EXAMPLES_DIR
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

# ---- Fig. 4: report, then trace minus *_profile ----------------------------

PCS_REFS=50000 PCS_THREADS=1 "$bench/fig4_simulation" > fig4_t1.txt
PCS_REFS=50000 PCS_THREADS=8 "$bench/fig4_simulation" > fig4_t8.txt
cmp fig4_t1.txt fig4_t8.txt

for t in 1 8; do
  PCS_REFS=50000 PCS_THREADS=$t PCS_TRACE=fig4_trace_t$t.jsonl \
    "$bench/fig4_simulation" > /dev/null
  grep -v '"type":"[a-z_]*_profile"' fig4_trace_t$t.jsonl \
    > fig4_trace_det_t$t.jsonl
done
grep -q '"type":"sweep_profile"' fig4_trace_t8.jsonl
test -s fig4_trace_det_t1.jsonl
cmp fig4_trace_det_t1.jsonl fig4_trace_det_t8.jsonl

# ---- Fig. 3d Monte-Carlo ---------------------------------------------------

PCS_TRIALS=500 PCS_THREADS=1 "$bench/fig3_yield" > fig3_t1.txt
PCS_TRIALS=500 PCS_THREADS=8 "$bench/fig3_yield" > fig3_t8.txt
cmp fig3_t1.txt fig3_t8.txt

# ---- Population: any thread count, any shard size --------------------------

PCS_THREADS=1 "$examples/chip_binning" 2000 > pop_t1.txt
PCS_THREADS=8 "$examples/chip_binning" 2000 > pop_t8.txt
PCS_THREADS=8 "$examples/chip_binning" 2000 64 4 2024 17 > pop_t8_s17.txt
cmp pop_t1.txt pop_t8.txt
cmp pop_t1.txt pop_t8_s17.txt

# ---- Grid: per-point files match standalone runs ---------------------------

PCS_THREADS=8 "$examples/population_grid" 2000 \
  --sizes 32,64 --assocs 2,4 --sigmas 0.1426,0.1585,0.1823 \
  --out-dir grid_points > grid_report.txt
for size in 32 64; do
  for assoc in 2 4; do
    i=0
    for sigma in 0.1426 0.1585 0.1823; do
      PCS_THREADS=1 "$examples/chip_binning" 2000 "$size" "$assoc" 2024 \
        4096 "$sigma" > standalone_point.txt
      cmp "grid_points/point_${size}kb_${assoc}w_s${i}.txt" \
        standalone_point.txt
      i=$((i + 1))
    done
  done
done
PCS_THREADS=1 "$examples/population_grid" 2000 \
  --sizes 32,64 --assocs 2,4 --sigmas 0.1426,0.1585,0.1823 \
  > grid_report_t1.txt
cmp grid_report.txt grid_report_t1.txt

# ---- Service: served outputs match the standalone CLIs ---------------------

cat > jobs.jsonl <<'EOF'
{"kind": "sim", "id": "hmmer-dpcs", "policy": "dpcs", "refs": 50000, "out": "job-sim.txt", "trace": "job-sim.jsonl"}
{"kind": "population", "id": "fleet", "chips": 2000, "out": "job-pop.txt"}
EOF
PCS_THREADS=4 "$examples/pcs_sim" --serve jobs.jsonl
"$examples/pcs_sim" --policy dpcs --refs 50000 > standalone-sim.txt
cmp job-sim.txt standalone-sim.txt
cmp job-pop.txt pop_t1.txt
tail -1 job-sim.jsonl | grep -q '"type":"job_profile"'

echo "thread invariance smoke passed"
