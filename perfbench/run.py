#!/usr/bin/env python3
"""Repository benchmark: builds dhc_perfbench from this checkout and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-congest --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
separately traced run (BENCHMARK.json lists both).  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.  The seed
fixes the trials a run attempts; --seconds only sets how long the end-to-end
run repeats them.  The run fails (exit code 1, correct=false, no metrics) when
a pinned counter differs, a repeat or a traced execution (which verifies every
returned cycle itself) disagrees with the first run_trials execution, or a
probe misses its analytic message count.  `failed` counts trials that failed
through a defect: a cycle the runner's verifier rejected, or an exception it
caught.

    python3 perfbench/run.py --update-pins

re-records perfbench/pins.json, the per-trial deterministic counters at the
pinned seed; do that only for a change that is meant to alter them, and say so.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS = BENCH_DIR / "pins.json"
WORKLOADS = ("dense-congest", "sparse-kmachine", "async-lossy")
PINNED_COUNTERS = ("success", "messages", "rounds", "bits", "barriers", "arena_bytes_peak")
TRIAL_KEY = ("instance", "config_index")
SEED_FIELDS = ("algo", "model", "graph_seed", "algo_seed")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds dhc_perfbench; returns the binary path."""
    if not (ROOT / "src" / "runner" / "trial_runner.h").is_file():
        raise RuntimeError(f"no libdhc sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise RuntimeError("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", BUILD_JOBS], check=True, stdout=sys.stderr)
    return out / "dhc_perfbench"


def run_program(binary, workload, seed, seconds, trace):
    """Runs one workload and returns the program's JSON report."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={trace}"]
    if trace:
        cmd.append(f"--spans={build_dir() / f'spans-{workload}-{seed}.ndjson'}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"dhc_perfbench exited {proc.returncode} without a report")
    report = json.loads(lines[-1])
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"dhc_perfbench exited {proc.returncode}")
    return report


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def trial_key(t):
    return tuple(t[k] for k in TRIAL_KEY)


def check_pins(workload, seed, trials, trace):
    """Compares the trials' counters with pins.json when run at the pinned seed.

    An end-to-end run must attempt exactly the pinned trials; a traced run
    may attempt the first of them only.
    """
    pins = json.loads(PINS.read_text())
    if seed != pins["seed"]:
        return []
    pinned = {trial_key(t): t for t in pins["workloads"].get(workload, [])}
    ran = {trial_key(t): t for t in trials}
    if not ran or not set(ran) <= set(pinned) or (not trace and set(ran) != set(pinned)):
        return [f"{workload} ran trials {sorted(ran)}, pins.json has {sorted(pinned)}"]
    errors = []
    for key, t in ran.items():
        pin = pinned[key]
        for field in SEED_FIELDS + PINNED_COUNTERS:
            if t[field] != pin[field]:
                errors.append(f"pinned {field} differs for {workload} instance {t['instance']} "
                              f"{t['algo']}: {t[field]} != {pin[field]}")
    return errors


def check_metrics(report, trace):
    declared = declared_metrics(trace)
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    if got != declared:
        return [f"metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(got))}, "
                f"extra {sorted(set(got) - set(declared))}, units "
                f"{sorted(k for k in got if k in declared and got[k] != declared[k])}"]
    return []


def measure(args):
    binary = build()
    report = run_program(binary, args.workload, args.seed, args.seconds, args.trace)
    errors = list(report["errors"])
    errors += check_pins(args.workload, args.seed, report["trials"], args.trace)
    errors += check_metrics(report, args.trace)
    for e in errors:
        log(e)
    result = {
        "correct": not errors,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {} if errors else report["metrics"],
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def format_pins(pins):
    """pins.json with one trial per line, so a changed counter is a one-line diff."""
    workloads = ",\n".join(
        f" {json.dumps(w)}: [\n" + ",\n".join(f"  {json.dumps(t)}" for t in trials) + "\n ]"
        for w, trials in pins["workloads"].items())
    return (f'{{"seed": {pins["seed"]}, "counters": {json.dumps(pins["counters"])}, "workloads": {{\n'
            f"{workloads}\n}}}}\n")


def update_pins(args):
    binary = build()
    pins = {"seed": args.seed, "counters": list(PINNED_COUNTERS), "workloads": {}}
    for workload in WORKLOADS:
        report = run_program(binary, workload, args.seed, args.seconds, 0)
        if report["errors"]:
            raise RuntimeError(f"{workload}: {report['errors']}")
        keep = TRIAL_KEY + SEED_FIELDS + PINNED_COUNTERS + ("failure",)
        pins["workloads"][workload] = [{k: t[k] for k in keep} for t in report["trials"]]
        log(f"{workload}: pinned {len(report['trials'])} trials")
    PINS.write_text(format_pins(pins))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--update-pins", action="store_true")
    args = p.parse_args()
    try:
        if args.update_pins:
            return update_pins(args)
        if args.workload is None:
            p.error("--workload is required")
        return measure(args)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
