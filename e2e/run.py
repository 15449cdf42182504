#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see e2e/README.md).

One workload, as BENCHMARK.json's command runs it:

    python3 e2e/run.py --workload fig4_sweep --seed 1 --seconds 10 --trace 0

prints `<workload> <metric> <value> <unit>` lines, a digest line, and as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Every workload, untraced then traced:

    python3 e2e/run.py [--seed S] [--seconds N]

pcs_e2e is built from ../src into build-e2e/ on first use.
Exits 1 when an op or cross-check failed, 2 when the build or a run broke.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-e2e"
# Scratch directory for generated inputs, relative to ROOT and the same for
# every run: file paths appear in serve_mix's outputs, and so in its digest.
WORK = Path("build-e2e/work")
# Set-up is repeated in this many processes per untraced run; setup_s is
# their median.
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures and builds pcs_e2e; returns its path."""
    out = BUILD / "cmake"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "e2e"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "pcs_e2e",
                  "-j", str(min(4, nproc()))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build failed:", " ".join(cmd))
            sys.exit(2)
    return out / "pcs_e2e"


def nproc():
    return len(os.sched_getaffinity(0))


def git_sha():
    try:
        return subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def drive(exe, workload, seed, seconds, *extra):
    """Runs pcs_e2e once in a fresh WORK; returns its result object."""
    shutil.rmtree(ROOT / WORK, ignore_errors=True)
    (ROOT / WORK).mkdir(parents=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir", str(WORK), *extra]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} timed out after {RUN_TIMEOUT_S} s")
        sys.exit(2)
    finally:
        shutil.rmtree(ROOT / WORK, ignore_errors=True)
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"run.py: {workload} printed no result (exit {p.returncode})")
        sys.exit(2)
    for err in result["errors"]:
        log(f"run.py: {workload}: {err}")
    return result


def measure(exe, spec, workload, seed, seconds, traced):
    """One benchmark run: (header, report lines, result object)."""
    if traced:
        spans = BUILD / f"e2e-trace-{workload}.jsonl"
        res = drive(exe, workload, seed, seconds,
                    "--traced", "--trace-out", str(spans.relative_to(ROOT)))
        note = f"span_file {spans.relative_to(ROOT)}"
    else:
        res = drive(exe, workload, seed, seconds)
        setups = [res["setup_s"]] + [
            drive(exe, workload, seed, seconds, "--setup-only")["setup_s"]
            for _ in range(1, SETUP_SAMPLES)]
        res["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                     "unit": "s"}
        note = "setup_samples_s " + " ".join(map(repr, setups))

    got = res["metrics"]
    metrics = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name in got and got[name]["unit"] != unit:
            log(f"run.py: {name} is in {got[name]['unit']}, not {unit}")
            sys.exit(2)
        if name not in got and not traced:
            log(f"run.py: {workload} did not report {name}")
            sys.exit(2)
        # A layer the workload never calls reports 0.
        metrics[name] = {"value": got.get(name, {"value": 0.0})["value"],
                         "unit": unit}
    lines = [f"{workload} {name} {v['value']!r} {v['unit']}"
             for name, v in got.items()]
    lines += [f"{workload} {note}", f"{workload} digest {res['digest']}"]
    header = (f"# git {git_sha()} nproc {nproc()} "
              f"threads {res['threads']} fast_math_active "
              f"{int(res['fast_math_active'])} seed {seed}")
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return header, lines, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if args.workload is not None and args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    exe = build()

    if args.workload is not None:
        header, lines, result = measure(exe, spec, args.workload, args.seed,
                                        seconds, args.trace == 1)
        print("\n".join([header] + lines))
        print(json.dumps(result), flush=True)
        sys.exit(0 if result["correct"] else 1)

    ok = True
    for i, (workload, traced) in enumerate(
            (w, t) for w in names for t in (False, True)):
        header, lines, result = measure(exe, spec, workload, args.seed,
                                        seconds, traced)
        print("\n".join(([header] if i == 0 else []) + lines), flush=True)
        ok = ok and result["correct"]
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
