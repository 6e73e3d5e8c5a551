"""wgwalk benchmark: the paper's command chain run as real CLI processes.

Usage, from the repository root:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's command script as one ``wgwalk`` process per
command, one after another (a closed loop with one client), pass after pass
for S seconds, at least two whole passes. It reports the end-to-end metrics
with tracing off. ``--trace 1`` reports per-layer metrics instead:
``python -X importtime`` for the import breakdown, then bench/traced.py for
spans around each module's calls. Every command's outputs are checked in
both modes. The last stdout line is one JSON object: correct, attempted, failed
and metrics. Generated configs, outputs and result.json (with each config's
sha256) go to bench/.work/WORKLOAD/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
IMPORT_RUNS = 3
MIN_PASSES = 2
TAIL_SAMPLES = 10  # report a percentile only with this many samples beyond it
LAYERS = ("config", "geometry", "coupling", "propagation", "twophoton", "polarization", "io", "cli")


def program_env() -> dict:
    """The caller's environment (BLAS threads as found) with the checkout's src first."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class Spawner:
    """Runs children through bench/spawn.py; ``run`` returns (wall s, exit code, CPU s, peak RSS MB)."""

    def __init__(self, env, stderr_path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawn.py"), str(stderr_path)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, args):
        self.proc.stdin.write(json.dumps(args) + "\n")
        self.proc.stdin.flush()
        return tuple(json.loads(self.proc.stdout.readline()))

    def median_wall(self, args, runs):
        walls = []
        for _ in range(runs):
            wall, code, _, _ = self.run(args)
            if code != 0:
                raise RuntimeError(f"{' '.join(args)} exited {code}")
            walls.append(wall)
        return statistics.median(walls)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def environment() -> dict:
    """Versions and the BLAS thread settings as found (the benchmark sets none)."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds, spawner):
    """Timed passes of the command script; returns (metrics, details, attempted, failures)."""
    python = sys.executable
    setup = [python, "-c", "import wgwalk.cli"]
    spawner.median_wall(setup, 1)  # bytecode cache filled, as after install

    checker = checks.Checker(workload)
    for command in workload.commands + workload.probes:
        if command.action == "propagate":
            checker.reference(command.chip)

    setup_walls, per_label, cpu_per_label, peak_rss = [], {}, {}, 0.0
    failures, verdicts = Counter(), {}
    # The script runs in order, pass after pass, until the run's time is up, with at
    # least MIN_PASSES whole passes; the last pass may stop part-way. A pass's wall and
    # CPU are each command's median over the run, summed, so that every sample counts,
    # those of the last, partial pass too. A set-up sample starts each pass, so that
    # set-up samples span the run.
    start, done = time.perf_counter(), 0
    while done < MIN_PASSES * len(workload.commands) or time.perf_counter() - start < seconds:
        if done % len(workload.commands) == 0:
            setup_walls.append(spawner.median_wall(setup, 1))
        command = workload.commands[done % len(workload.commands)]
        wall, code, cpu, rss = spawner.run([python, "-m", "wgwalk.cli", *command.argv])
        per_label.setdefault(command.label, []).append(wall)
        cpu_per_label.setdefault(command.label, []).append(cpu)
        peak_rss = max(peak_rss, rss)
        verdicts[command.label] = reason = checker.check(command, code)
        if reason:
            failures[f"{command.label}: {reason}"] += 1
        done += 1
    setup_walls.append(spawner.median_wall(setup, 1))
    probes = {}
    for command in workload.probes:
        _, code, _, _ = spawner.run([python, "-m", "wgwalk.cli", *command.argv])
        probes[command.label] = checker.check(command, code)

    walls = [w for v in per_label.values() for w in v]
    metrics = {
        "setup_s": metric(statistics.median(setup_walls), "s"),
        "pass_s": metric(sum(statistics.median(v) for v in per_label.values()), "s"),
        "cmd_wall_s_p50": metric(statistics.median(walls), "s"),
        "cpu_s_per_pass": metric(sum(statistics.median(v) for v in cpu_per_label.values()), "s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }
    details = {
        "cmd_wall_s_p90": statistics.quantiles(walls, n=10)[-1] if len(walls) >= 10 * TAIL_SAMPLES else None,
        "fail_ratio": sum(failures.values()) / len(walls),
        "u_err": checker.u_err,
        "reference_error_estimate": {c: r["estimate"] for c, r in checker.refs.items()},
        "verdicts": verdicts,
        "probes": probes,
        "samples": {"setup_s": setup_walls, "cmd_wall_s": per_label, "cmd_cpu_s": cpu_per_label},
    }
    return metrics, details, len(walls), failures


def import_breakdown(env):
    """Cumulative import times (s) from ``python -X importtime -c 'import wgwalk.cli'``."""
    samples = {"import.numpy_s": [], "import.scipy_s": [], "import.wgwalk_s": []}
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import wgwalk.cli"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120, check=True,
        )
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            _, cumulative, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip(" "))) // 2
            rows.append((depth, name.strip(), int(cumulative) / 1e6))
        # Children are printed before their parent: walk backwards to see ancestors first.
        totals, ancestors = {key: 0.0 for key in samples}, []
        for depth, name, cumulative in reversed(rows):
            del ancestors[depth:]
            package = name.split(".")[0]
            key = f"import.{package}_s"
            if key in totals and not any(a.split(".")[0] == package for a in ancestors):
                totals[key] += cumulative
            ancestors.append(name)
        for key, value in totals.items():
            samples[key].append(value)
    result = {key: statistics.median(v) for key, v in samples.items()}
    with Spawner(env, os.devnull) as spawner:
        result["import.interp_s"] = spawner.median_wall([sys.executable, "-c", "pass"], IMPORT_RUNS)
    return result


def traced(workload_name, seed, seconds, env, work):
    metrics = import_breakdown(env)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "traced.py"), workload_name, str(seed), str(seconds), str(work)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(summary.pop("metrics"))
    if summary["u_err"]:
        metrics["propagation.u_err_max"] = max(summary["u_err"].values())
    return metrics, summary


def _verdict(reason):
    return "ok  " if reason is None else f"FAIL {reason}"


def print_end_to_end(workload, details, attempted, failed):
    samples = details["samples"]
    print(f"command verdicts (last of {len(samples['setup_s']) - 1} passes) and median wall per command:")
    for label, reason in details["verdicts"].items():
        print(f"  {statistics.median(samples['cmd_wall_s'][label]):7.4f} s  {label:<32} {_verdict(reason)}")
    for label, reason in details["probes"].items():
        print(f"  known-defect probe, untimed: {label}: {_verdict(reason)}")
    print("not in the JSON line:")
    tail = details["cmd_wall_s_p90"]
    print(f"  {'cmd_wall_s_p90':<32} " + (f"{tail:.6g} s" if tail is not None else
          f"not reported: {attempted} samples, {10 * TAIL_SAMPLES} needed for {TAIL_SAMPLES} beyond p90"))
    probe_text = ""
    if details["probes"]:
        probe_failed = sum(reason is not None for reason in details["probes"].values())
        probe_text = f"; one pass with the probe: {probe_failed}/{len(workload.commands) + len(workload.probes)}"
    print(f"  {'fail_ratio':<32} {failed}/{attempted} = {details['fail_ratio']:.6g}{probe_text}")
    if details["u_err"]:
        print(f"  {'u_err_max':<32} {max(details['u_err'].values()):.6g} (largest |U - U_ref| over passing chips)")


def print_traced(summary):
    layers = summary["layers"]
    total = sum(layers.values())
    print(f"traced passes {summary['passes']}; self time per layer in one pass (median):")
    for layer in LAYERS:
        value = layers.get(layer, 0.0)
        print(f"  {layer:<13} {value:9.4f} s  {100 * value / total if total else 0:5.1f}%")
    if summary["absent"]:
        print(f"absent (target renamed or removed): {', '.join(summary['absent'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wgwalk" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not a wgwalk checkout (no src/wgwalk/cli.py or configs/)", file=sys.stderr)
        return 2
    env = program_env()
    work = BENCH / ".work" / args.workload
    print(f"workload {args.workload} (seed {args.seed}, trace {args.trace}): {workloads.WHY[args.workload]}")
    print("closed loop, 1 client: one command at a time, " + ("in one traced process" if args.trace else "one process each"))

    if args.trace:
        metrics, details = traced(args.workload, args.seed, args.seconds, env, work)
        attempted, failures, sha = details["attempted"], Counter(details["failures"]), details["sha256"]
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        out = {name: metric(value, units[name]) for name, value in metrics.items() if name in units}
    else:
        workload = workloads.generate(args.workload, args.seed, ROOT, work)
        with Spawner(env, work / "stderr.txt") as spawner:
            out, details, attempted, failures = end_to_end(workload, args.seconds, spawner)
        sha = workload.sha256

    failed = sum(failures.values())
    for chip, digest in sha.items():
        print(f"config sha256 {chip:<16} {digest}")
    if args.trace:
        print_traced(details)
    else:
        print_end_to_end(workload, details, attempted, failed)
    for reason, count in failures.items():
        print(f"failed {count}x: {reason}")
    print(f"metrics ({attempted} commands attempted):")
    for name, value in out.items():
        print(f"  {name:<32} {value['value']:.6g} {value['unit']}")

    record = dict(details, workload=args.workload, seed=args.seed, trace=args.trace, sha256=sha,
                  attempted=attempted, failed=failed, metrics=out, environment=environment())
    (work / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
