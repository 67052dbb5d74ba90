"""One measurement in a fresh interpreter: set up, run passes, report JSON.

Usage: python3 perfbench/child.py SPEC.json

The spec (written by ``run.py``) names the checkout, the scratch
directories, the workload's module order and the passes to run.  Each
pass calls the public ``repro bench`` entry point in-process, once per
bench module, with ``--check`` against the checkout's baselines and
``--trace`` for per-cell events.  Everything measured goes to the spec's
``out`` file; the tables ``repro bench`` prints go to a log.
"""

import contextlib
import cProfile
import importlib
import json
import os
import resource
import shutil
import sys
import time


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _setup(spec):
    """Import ``repro.cli`` and resolve every experiment of the workload.

    Returns the startup figures; ``setup_s`` counts from the moment the
    parent launched this interpreter."""
    modules_before = len(sys.modules)
    start = time.monotonic()
    import repro.cli  # noqa: F401 — the import is what is measured
    from repro.exp.bench import build_experiment

    import_s = time.monotonic() - start
    modules = len(sys.modules) - modules_before
    sys.path.insert(0, spec["bench_dir"])
    suite = dict(importlib.import_module("run_all").EXPERIMENTS)
    for name in spec["modules"]:
        module = importlib.import_module(name)
        for fn_name, out_name in suite[name]:
            build_experiment(module, fn_name, out_name)
    return {"setup_s": time.monotonic() - spec["launched"],
            "import_s": import_s, "modules": modules}


def _count_kernel_runs():
    """Wrap the default kernel's ``run`` to count runs and fired events
    through the public ``kernel_stats()``.  ``None`` when the kernel no
    longer offers what is wrapped."""
    try:
        from repro.common.simulator import Simulator

        kernel = type(Simulator())
        original = kernel.run
        Simulator().kernel_stats()["events_fired"]
    except (ImportError, AttributeError, KeyError, TypeError):
        return None
    counts = {"runs": 0, "events": 0}

    def run(self, *args, **kwargs):
        before = self.kernel_stats()["events_fired"]
        try:
            return original(self, *args, **kwargs)
        finally:
            counts["runs"] += 1
            counts["events"] += self.kernel_stats()["events_fired"] - before

    kernel.run = run
    return counts


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _cells(trace_path):
    """Per-cell records from the ``sweep_begin``/``sweep_task`` events;
    ``None`` when the trace holds no cell events."""
    cells = []
    table = None
    try:
        with open(trace_path, "r", encoding="utf-8") as handle:
            for line in handle:
                event = json.loads(line)
                if event.get("kind") == "sweep_begin":
                    table = event.get("detail")
                elif event.get("kind") == "sweep_task":
                    cells.append({"table": table,
                                  "index": event.get("index"),
                                  "status": event.get("status"),
                                  "attempts": event.get("attempts"),
                                  "cached": bool(event.get("cached")),
                                  "wall": event.get("wall")})
    except (OSError, ValueError):
        return None
    return cells or None


def _run_pass(spec, pass_spec, kernel_counts, log):
    """Run one pass over every module; returns what it measured."""
    work = spec["work"]
    name = pass_spec["name"]
    cache_dir = os.path.join(work, "cache")
    if pass_spec["cache"] == "fresh":
        shutil.rmtree(cache_dir, ignore_errors=True)
    import repro.cli

    calls = []
    for module in spec["modules"]:
        stem = os.path.join(work, f"{name}.{module}")
        args = ["bench", "--only", module, "--jobs", str(pass_spec["jobs"]),
                "--bench-dir", spec["bench_dir"], "--check",
                "--baseline-dir", spec["baseline_dir"],
                "--check-out", stem + ".check.json",
                "--trace", stem + ".trace.jsonl"]
        if pass_spec["cache"]:
            args += ["--cache-dir", cache_dir]
        else:
            args.append("--no-cache")
        calls.append((module, stem, args))
    if kernel_counts is not None:
        kernel_counts.update(runs=0, events=0)
    profiler = cProfile.Profile() if pass_spec.get("profile") else None
    aggregate_path = os.path.join(os.path.dirname(spec["bench_dir"]),
                                  "BENCH_results.json")
    errors = {}
    module_walls = {}
    cpu_start = _cpu_seconds()
    start = time.monotonic()
    for module, stem, args in calls:
        module_start = time.monotonic()
        try:
            with contextlib.redirect_stdout(log):
                if profiler is not None:
                    profiler.enable()
                try:
                    repro.cli.main(args, out=log)
                finally:
                    if profiler is not None:
                        profiler.disable()
            os.replace(aggregate_path, stem + ".aggregate.json")
        except Exception as exc:  # noqa: BLE001 — a failed call is a result
            errors[module] = f"{type(exc).__name__}: {exc}"
        module_walls[module] = time.monotonic() - module_start
    wall = time.monotonic() - start
    cpu = _cpu_seconds() - cpu_start

    result = {"name": name, "jobs": pass_spec["jobs"],
              "cache": pass_spec["cache"], "wall_s": wall, "cpu_s": cpu,
              "modules": {}}
    for module, stem, _args in calls:
        result["modules"][module] = {
            "error": errors.get(module),
            "wall_s": module_walls[module],
            "aggregate": _read_json(stem + ".aggregate.json"),
            "check": _read_json(stem + ".check.json"),
            "cells": _cells(stem + ".trace.jsonl"),
        }
    if pass_spec["cache"]:
        result["store_files"] = sum(
            len(files) for _root, _dirs, files in os.walk(cache_dir))
    if kernel_counts is not None:
        result["kernel"] = dict(kernel_counts)
    if profiler is not None:
        import layers

        layer_map = layers.LayerMap(os.path.join(spec["root"], "src",
                                                 "repro"))
        buckets, total = layers.attribute(profiler.getstats(), layer_map)
        result["profile"] = {
            "total_ns": total,
            "layers": {layer: (values if layer == layers.OTHER
                               or layer_map.present(layer) else None)
                       for layer, values in buckets.items()},
        }
    return result


def main(spec_path):
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    report = _setup(spec)
    kernel_counts = None
    if any(p.get("kernel") for p in spec["passes"]):
        kernel_counts = _count_kernel_runs()
    report["passes"] = []
    with open(os.path.join(spec["work"], "tables.log"), "a",
              encoding="utf-8") as log:
        for pass_spec in spec["passes"]:
            counts = kernel_counts if pass_spec.get("kernel") else None
            report["passes"].append(_run_pass(spec, pass_spec, counts, log))
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    report["maxrss_kb"] = own.ru_maxrss
    report["children_maxrss_kb"] = kids.ru_maxrss
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
