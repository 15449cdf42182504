#!/usr/bin/env bash
# Checkpoint-resume smoke: a population run and a grid run killed after
# their second and first sidecar writes resume to reports byte-identical to
# uninterrupted runs, and a sidecar whose counts were edited is rejected
# with a warning while the clean start still matches the full run.
#
#   tests/smoke/checkpoint_resume.sh CHIP_BINNING POPULATION_GRID
#
# Runs in the current directory and leaves its files there; ctest gives it
# a directory of its own.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 CHIP_BINNING POPULATION_GRID" >&2
  exit 2
fi
chip_binning=$1
population_grid=$2

# ---- Population: kill, resume ----------------------------------------------

rc=0
PCS_THREADS=4 "$chip_binning" 4000 64 4 2024 256 \
  --checkpoint pop.ckpt --checkpoint-shards 2 \
  --checkpoint-stop-after 2 > /dev/null || rc=$?
test "$rc" -eq 3  # the interrupted run must die mid-flight
PCS_THREADS=4 "$chip_binning" 4000 64 4 2024 256 \
  --checkpoint pop.ckpt --resume > pop_resumed.txt
PCS_THREADS=4 "$chip_binning" 4000 64 4 2024 256 > pop_full.txt
cmp pop_resumed.txt pop_full.txt

# ---- An edited sidecar: a warning and a clean start ------------------------

# Its counts no longer add up, so it is rejected with a warning, and the
# clean start still matches the full run.
rc=0
PCS_THREADS=4 "$chip_binning" 4000 64 4 2024 256 \
  --checkpoint pop.ckpt --checkpoint-shards 2 \
  --checkpoint-stop-after 2 > /dev/null || rc=$?
test "$rc" -eq 3
sed -i 's/^num_chips 1024$/num_chips 9024/' pop.ckpt
grep -q '^num_chips 9024$' pop.ckpt
PCS_THREADS=4 "$chip_binning" 4000 64 4 2024 256 \
  --checkpoint pop.ckpt --resume > pop_edited.txt 2> pop_edited.err
cmp pop_edited.txt pop_full.txt
grep -q 'checkpoint sidecar rejected.*num_chips' pop_edited.err

# ---- Grid: kill, resume ----------------------------------------------------

rc=0
PCS_THREADS=4 "$population_grid" 2000 --sizes 32,64 \
  --assocs 2,4 --checkpoint grid.ckpt --checkpoint-shards 1 \
  --checkpoint-stop-after 1 > /dev/null || rc=$?
test "$rc" -eq 3
PCS_THREADS=4 "$population_grid" 2000 --sizes 32,64 \
  --assocs 2,4 --checkpoint grid.ckpt --resume > grid_resumed.txt
PCS_THREADS=4 "$population_grid" 2000 --sizes 32,64 \
  --assocs 2,4 > grid_full.txt
cmp grid_resumed.txt grid_full.txt

echo "checkpoint resume smoke passed"
