"""Traced in-process run: spans around the program's module-level calls.

Usage: python3 bench/traced.py WORKLOAD SEED SECONDS WORK_DIR, with the
checkout's ``src`` on PYTHONPATH. One process calls ``wgwalk.cli.main`` for
each command of the workload, alternating untraced and traced passes until
SECONDS have elapsed. Each command is a root span ``cli``; the wrappers below
record name, start, end, parent and command for every call through the names
the program resolves at run time. Spans stay in memory and go to
WORK_DIR/spans.json at the end; the last stdout line is a JSON summary.

A target that a later version renames or deletes is skipped and its metrics
are reported as absent; the end-to-end run does not depend on this file.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import checks
import workloads

_CLI = "wgwalk.cli"

# Span name -> (module, attribute path) pairs wrapped under that name.
SPANS = {
    "config.load": [(_CLI, "load_run_config")],
    "geometry.positions_at": [("wgwalk.geometry", "WaveguideLayout.positions_at")],
    "coupling.build": [(m, "build_coupling_matrix") for m in (_CLI, "wgwalk.propagation", "wgwalk.polarization")],
    "propagation.zdep": [(_CLI, "propagate_z_dependent")],
    "propagation.unitary": [(m, "unitary") for m in (_CLI, "wgwalk.propagation", "wgwalk.polarization")],
    "propagation.evolve": [(_CLI, "evolve_amplitudes")],
    "twophoton.gamma": [
        (m, f)
        for m in (_CLI, "wgwalk.twophoton")
        for f in ("gamma_indistinguishable", "gamma_distinguishable", "quantum_difference")
    ],
    "twophoton.hom_scan": [(_CLI, "hom_scan")],
    "twophoton.visibility": [(_CLI, "visibility")],
    "twophoton.similarity": [(_CLI, "similarity")],
    "polarization.build_chip": [(_CLI, "build_polarized_chip")],
    "polarization.simulate": [(_CLI, "simulate_tomography")],
    "polarization.reconstruct": [(_CLI, "reconstruct_mueller")],
    "polarization.ellipsoid": [(_CLI, "poincare_ellipsoid")],
    "polarization.pdl": [(_CLI, "pdl_report")],
    "io.write": [("wgwalk.io", f) for f in ("write_json", "write_matrix_csv", "write_table_csv", "write_record_csv")],
    "io.read": [("wgwalk.io", f) for f in ("read_matrix_csv", "read_table_csv", "read_record_csv")],
}
# Counted without a span, so their time stays in the caller's self time.
COUNTED = {"twophoton.fit": [("wgwalk.twophoton", "_fit_visibility")]}

# Per-layer metric -> (span or counter it reads, what it reads).
METRICS = {
    "config.load_s": ("config.load", "self"),
    "config.calls": ("config.load", "calls"),
    "geometry.positions_at_s": ("geometry.positions_at", "self"),
    "geometry.positions_at_calls": ("geometry.positions_at", "calls"),
    "coupling.build_s": ("coupling.build", "self"),
    "coupling.builds": ("coupling.build", "calls"),
    "propagation.zdep_s": ("propagation.zdep", "self"),
    "propagation.zdep_steps": ("propagation.zdep", "steps"),
    "propagation.zdep_reuse": ("propagation.zdep", "reuse"),
    "propagation.unitary_s": ("propagation.unitary", "self"),
    "propagation.unitary_calls": ("propagation.unitary", "calls"),
    "propagation.evolve_s": ("propagation.evolve", "self"),
    "twophoton.gamma_s": ("twophoton.gamma", "self"),
    "twophoton.hom_scan_s": ("twophoton.hom_scan", "self"),
    "twophoton.visibility_s": ("twophoton.visibility", "self"),
    "twophoton.fits": ("twophoton.fit", "calls"),
    "polarization.build_chip_s": ("polarization.build_chip", "self"),
    "polarization.simulate_s": ("polarization.simulate", "self"),
    "polarization.reconstruct_s": ("polarization.reconstruct", "self"),
    "polarization.reconstruct_calls": ("polarization.reconstruct", "calls"),
    "polarization.ellipsoid_s": ("polarization.ellipsoid", "self"),
    "polarization.ellipsoids": ("polarization.ellipsoid", "calls"),
    "polarization.pdl_s": ("polarization.pdl", "self"),
    "io.write_s": ("io.write", "self"),
    "io.bytes_written": ("io.write", "bytes"),
    "io.read_s": ("io.read", "self"),
    "io.rows_read": ("io.read", "rows"),
    "cli.self_s": ("cli", "self"),
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, command id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.command = None
        self.hook_errors = set()
        self.begin_pass()

    def begin_pass(self):
        self.counts = defaultdict(Counter)
        self.zdep_chips = set()

    def call(self, name, fn, args, kwargs):
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.command]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def count(self, name, args, result):
        counts = self.counts[name]
        counts["calls"] += 1
        try:
            if name == "propagation.zdep":
                counts["steps"] += int(args[4])
                self.zdep_chips.add(self.command.chip)
            elif name == "io.write":
                counts["bytes"] += Path(args[0]).stat().st_size
            elif name == "io.read":
                if hasattr(result, "intensities"):  # tomography record: one row per intensity
                    counts["rows"] += result.intensities.size
                else:  # matrix rows, or (columns, rows) of a table
                    counts["rows"] += len(result[1] if isinstance(result, tuple) else result)
        except Exception:  # a changed signature loses the counter, never the run
            self.hook_errors.add(name)

    def wrap(self, name, fn, span=True):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs) if span else fn(*args, **kwargs)
            self.count(name, args, result)
            return result

        return traced


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Instrumentation:
    """Installs the wrappers for one traced pass and restores the originals."""

    def __init__(self, tracer):
        self.targets = []  # (owner, attribute, original, wrapper)
        self.absent = set()
        for table, span in ((SPANS, True), (COUNTED, False)):
            for name, places in table.items():
                found = 0
                for module_name, path in places:
                    try:
                        owner, attr, original = _resolve(module_name, path)
                    except (ImportError, AttributeError):
                        continue
                    self.targets.append((owner, attr, original, tracer.wrap(name, original, span)))
                    found += 1
                if not found:
                    self.absent.add(name)

    def __enter__(self):
        for owner, attr, _, wrapper in self.targets:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self.targets:
            setattr(owner, attr, original)


def run_pass(main, commands, tracer=None):
    """Run every command in-process; returns (wall seconds, exit code or error per command)."""
    results = []
    start = time.perf_counter()
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                if tracer is None:
                    code = main(command.argv)
                else:
                    tracer.command = command
                    code = tracer.call("cli", main, (command.argv,), {})
            except Exception as exc:  # keep going: the failure is counted, not fatal
                code = f"{type(exc).__name__}: {exc}"
        results.append(code)
    return time.perf_counter() - start, results


def summarize(tracer, first_span):
    """Per-layer numbers of the traced pass whose spans start at ``first_span``."""
    spans = tracer.spans[first_span:]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None and parent >= first_span:
            child_time[parent - first_span] += end - start
    self_time = Counter()
    for (name, start, end, _, _), children in zip(spans, child_time):
        self_time[name] += end - start - children
    counts = tracer.counts
    values = {}
    for metric, (name, what) in METRICS.items():
        if what == "self":
            values[metric] = self_time.get(name, 0.0)
        elif what == "reuse":
            calls = counts.get(name, {}).get("calls", 0)
            values[metric] = len(tracer.zdep_chips) / calls if calls else 1.0
        else:
            values[metric] = counts.get(name, {}).get(what, 0)
    layers = Counter()
    for name, t in self_time.items():
        layers[name.split(".")[0]] += t
    return values, dict(layers)


def main(argv):
    name, seed, seconds, work = argv[0], int(argv[1]), float(argv[2]), Path(argv[3])
    root = Path(__file__).resolve().parent.parent
    workload = workloads.generate(name, seed, root, work)
    from wgwalk import cli

    checker = checks.Checker(workload)
    for command in workload.commands:
        if command.action == "propagate":
            checker.reference(command.chip)

    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    attempted, failures = 0, Counter()
    untraced, traced, per_layer, layers = [], [], defaultdict(list), defaultdict(list)
    start = time.perf_counter()
    pair = 0
    while pair == 0 or (time.perf_counter() - start) * (pair + 1) / pair <= seconds:
        # Alternate which side runs first so warm-up favours neither.
        for traced_side in ((False, True) if pair % 2 == 0 else (True, False)):
            if traced_side:
                tracer.begin_pass()
                first = len(tracer.spans)
                with instrumentation:
                    wall, codes = run_pass(cli.main, workload.commands, tracer)
                traced.append(wall)
                values, layer_self = summarize(tracer, first)
                for metric, value in values.items():
                    per_layer[metric].append(value)
                for layer, value in layer_self.items():
                    layers[layer].append(value)
            else:
                wall, codes = run_pass(cli.main, workload.commands)
                untraced.append(wall)
            for command, code in zip(workload.commands, codes):
                attempted += 1
                reason = code if isinstance(code, str) else checker.check(command, code)
                if reason:
                    failures[f"{command.label}: {reason}"] += 1
        pair += 1

    spans = [[n, s - start, e - start, p, c.label if c else None] for n, s, e, p, c in tracer.spans]
    (work / "spans.json").write_text(json.dumps({"fields": ["name", "start", "end", "parent", "command"], "spans": spans}))
    absent = sorted(instrumentation.absent | tracer.hook_errors)
    metrics = {
        metric: statistics.median(values)
        for metric, values in per_layer.items()
        if METRICS[metric][0] not in absent
    }
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    print(
        json.dumps(
            {
                "metrics": metrics,
                "layers": {k: statistics.median(v) for k, v in layers.items()},
                "absent": absent,
                "attempted": attempted,
                "failures": dict(failures),
                "u_err": checker.u_err,
                "passes": len(traced),
                "traced_s": traced,
                "untraced_s": untraced,
                "sha256": workload.sha256,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
