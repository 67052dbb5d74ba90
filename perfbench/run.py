"""The repo benchmark: run one workload cold and report its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dataflow --seed 1 \
        --seconds 36 --trace 0

Every measurement runs in a fresh interpreter (``child.py``) that drives
the public ``repro bench`` entry point once per bench module, against a
scratch copy of ``benchmarks/`` and a scratch result cache, so a run
writes nothing the repository tracks.  Every produced table is checked
against ``benchmarks/baselines/``.

``--trace 0`` repeats the workload's cold pass for ``--seconds`` and
reports medians of the end-to-end metrics.  ``--trace 1`` runs it once
with cheap instrumentation (per-cell trace events, kernel counters) and
once more under a deterministic profiler, and reports per-layer metrics.
The last line of standard output is the result as one JSON object.
"""

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import FORBIDDEN_ENV, WORKLOADS, module_order  # noqa: E402

ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
#: A run must end well inside the 180 s a caller allows it.
BUDGET_S = 170.0
#: Set-up samples per untraced run; extra set-up-only children top up
#: what the timed passes give.
SETUP_SAMPLES = 5


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _checkout_ok():
    missing = [path for path in ("src/repro/cli.py", "benchmarks/run_all.py",
                                 "benchmarks/baselines")
               if not os.path.exists(os.path.join(ROOT, path))]
    if missing:
        raise BenchError("not a checkout of the repository: missing "
                         + ", ".join(missing))


def prepare(work):
    """A fresh scratch area ``work`` holding a copy of the bench modules;
    returns the copy's directory."""
    shutil.rmtree(work, ignore_errors=True)
    bench_dir = os.path.join(work, "benchmarks")
    os.makedirs(bench_dir)
    source = os.path.join(ROOT, "benchmarks")
    for name in sorted(os.listdir(source)):
        if name.endswith(".py"):
            shutil.copy2(os.path.join(source, name), bench_dir)
    # Tables land here; made up front so that no profiled pass is the one
    # that creates it, which would change its call counts.
    os.makedirs(os.path.join(bench_dir, "results"))
    # Byte-compile up front, as an installed program would be, so the
    # first set-up of a fresh checkout is not timed compiling.
    for path in (os.path.join(ROOT, "src"), bench_dir):
        compileall.compile_dir(path, quiet=1)
    return bench_dir


def _git_commit():
    """The checkout's commit read from ``.git``; ``None`` outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r",
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_stamp():
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "commit": _git_commit(),
            "loadavg_before": list(os.getloadavg())}


class Runner:
    """Launches measurement children within the run's time budget."""

    def __init__(self, modules, work, bench_dir, deadline,
                 baseline_dir=os.path.join(ROOT, "benchmarks", "baselines")):
        self.modules = modules
        self.work = work
        self.bench_dir = bench_dir
        self.baseline_dir = baseline_dir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH") else "")
        # Fixed hashing keeps profiled call counts repeatable.
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, passes):
        """Run ``child.py`` with ``passes``; returns its report and its
        total wall time."""
        self.count += 1
        work = os.path.join(self.work, f"child{self.count}")
        os.makedirs(work)
        spec = {"root": ROOT, "work": work, "bench_dir": self.bench_dir,
                "baseline_dir": self.baseline_dir,
                "modules": self.modules, "passes": passes,
                "out": os.path.join(work, "report.json")}
        spec_path = os.path.join(work, "spec.json")
        log_path = os.path.join(work, "child.log")
        with open(log_path, "w", encoding="utf-8") as log:
            spec["launched"] = time.monotonic()
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            process = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                stdout=log, stderr=subprocess.STDOUT, env=self.env,
                cwd=ROOT, start_new_session=True)
            try:
                code = process.wait(timeout=max(1.0, self.deadline
                                                - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                raise BenchError("a measurement overran the time budget "
                                 f"(log: {log_path})") from None
            finally:
                # Reap any worker the child left behind.
                try:
                    os.killpg(process.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        took = time.monotonic() - spec["launched"]
        if code != 0:
            with open(log_path, "r", encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            raise BenchError(f"measurement exited with {code}:\n{tail}")
        with open(spec["out"], "r", encoding="utf-8") as fh:
            return json.load(fh), took


class Tally:
    """Tables and cells attempted and failed over a run's passes."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, expected_tables, pass_report, cold):
        attempted, failed, problems = assess(expected_tables, pass_report,
                                             cold)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def assess(expected_tables, pass_report, cold):
    """Count what a pass attempted and what failed.

    Attempted: every table and every cell.  Failed: a cell that did not
    end ok, a table that did not run, ran unasked, has no baseline or
    drifts from it, and on a cold pass a cell served from cache.
    ``expected_tables`` maps each bench module to the tables it must
    produce."""
    attempted = failed = 0
    problems = []
    for module, expected in expected_tables.items():
        outcome = pass_report["modules"][module]
        if outcome["error"]:
            attempted += len(expected)
            failed += len(expected)
            problems.append(f"{module}: {outcome['error']}")
            continue
        aggregate = outcome["aggregate"] or {"experiments": [],
                                             "failures": []}
        check = outcome["check"] or {"checked": [], "diffs": []}
        ran = {entry["experiment"]: entry
               for entry in aggregate["experiments"]}
        broken = {entry["experiment"]: entry
                  for entry in aggregate["failures"]}
        drifted = {diff["experiment"] for diff in check["diffs"]}
        for table in sorted(set(ran) | set(broken) | set(expected)):
            attempted += 1
            if table not in expected:
                failed += 1
                problems.append(f"{table}: selected but not in the workload")
            if table in broken:
                rows = len(broken[table]["rows"])
                attempted += rows
                failed += 1 + rows
                problems.append(f"{table}: {rows} cell(s) failed")
                continue
            if table not in ran:
                failed += 1
                problems.append(f"{table}: did not run")
                continue
            attempted += ran[table]["grid"]
            if cold and ran[table]["cache_hits"]:
                failed += ran[table]["cache_hits"]
                problems.append(f"{table}: {ran[table]['cache_hits']} "
                                "cold cell(s) served from cache")
            if table in drifted:
                failed += 1
                problems.append(f"{table}: drifts from its baseline")
            elif table not in check["checked"]:
                failed += 1
                problems.append(f"{table}: not checked against a baseline")
    return attempted, failed, problems


def _cells(pass_report):
    """Every cell of a pass, or ``None`` if any module gave no events."""
    cells = []
    for outcome in pass_report["modules"].values():
        if outcome["cells"] is None:
            return None
        cells.extend(outcome["cells"])
    return cells


def _percentile(values, share):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def executor_metrics(cold, inline):
    """``exp.*`` from a cold pass's cell events; ``inline`` is an inline
    pass over the same cells (``None`` when the cold pass is inline)."""
    cells = _cells(cold)
    names = ("exp.cells", "exp.attempts", "exp.failed", "exp.cached",
             "exp.cell_p50_s", "exp.cell_p80_s", "exp.cell_sum_s",
             "exp.pool_util", "exp.overhead_s")
    if not cells:
        return dict.fromkeys(names)
    walls = [cell["wall"] for cell in cells if not cell["cached"]]
    cell_sum = sum(walls)
    overhead = 0.0
    if inline is not None:
        inline_cells = _cells(inline)
        overhead = (None if inline_cells is None else
                    cell_sum - sum(cell["wall"] for cell in inline_cells))
    return {
        "exp.cells": len(cells),
        "exp.attempts": sum(cell["attempts"] for cell in cells),
        "exp.failed": sum(1 for cell in cells if cell["status"] != "ok"),
        "exp.cached": sum(1 for cell in cells if cell["cached"]),
        "exp.cell_p50_s": _percentile(walls, 0.5) if walls else 0.0,
        "exp.cell_p80_s": _percentile(walls, 0.8) if walls else 0.0,
        "exp.cell_sum_s": cell_sum,
        "exp.pool_util": cell_sum / (max(cold["jobs"], 1) * cold["wall_s"]),
        "exp.overhead_s": overhead,
    }


def store_metrics(cold, warm):
    """``store.*`` from a cold pass into an empty cache and a warm pass."""
    cold_cells, warm_cells = _cells(cold), _cells(warm)
    return {
        "store.misses": (None if cold_cells is None else
                         sum(1 for c in cold_cells if not c["cached"])),
        "store.writes": cold["store_files"],
        "store.hits": (None if warm_cells is None else
                       sum(1 for c in warm_cells if c["cached"])),
        "store.warm_s": warm["wall_s"],
    }


def profile_metrics(profiled, untraced_wall):
    profile = profiled["profile"]
    total = profile["total_ns"]
    metrics = {"profile.total_s": total / 1e9,
               "profile.overhead_x": profiled["wall_s"] / untraced_wall}
    for layer, values in profile["layers"].items():
        if values is None:
            metrics.update({f"{layer}.self_s": None, f"{layer}.share": None,
                            f"{layer}.calls": None})
            continue
        self_ns, calls = values
        metrics.update({f"{layer}.self_s": self_ns / 1e9,
                        f"{layer}.share": self_ns / total if total else 0.0,
                        f"{layer}.calls": calls})
    return metrics


def declared_units(trace):
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for a
    traced (per-layer) or untraced (end-to-end) run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r",
              encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in declared}


def batch_medians(values, batch):
    """The median of the means of consecutive groups of ``batch`` values."""
    return statistics.median([statistics.fmean(values[i:i + batch])
                              for i in range(0, len(values), batch)])


def measure_untraced(runner, workload, seconds, start):
    """Repeat the cold pass for ``seconds``.

    Each pass is one sample, except on a workload with a ``batch``: its
    short passes are grouped, and the mean of a group is one sample, so
    a sample spans a stretch of time comparable to the other workloads'.
    Each metric is the median of its samples."""
    spec = WORKLOADS[workload]
    batch = spec.get("batch", 1)
    passes = [{"name": "cold", "jobs": spec["jobs"],
               "cache": "fresh" if spec["cache"] else None}]
    if spec["cache"]:
        passes.append({"name": "warm", "jobs": spec["jobs"],
                       "cache": "reuse"})
    reps, setups, durations = [], [], []
    tally = Tally()
    while True:
        for _ in range(batch):
            report, took = runner.child(passes)
            durations.append(took)
            setups.append(report["setup_s"])
            reps.append(report)
            for index, pass_report in enumerate(report["passes"]):
                tally.add(spec["modules"], pass_report, cold=index == 0)
        # Start another sample while at least half of it would fall
        # inside the measured window.
        if (time.monotonic() + batch * statistics.median(durations) / 2
                > start + seconds):
            break
    while len(setups) < SETUP_SAMPLES:
        report, _took = runner.child([])
        setups.append(report["setup_s"])
    cold = [report["passes"][0] for report in reps]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": batch_medians([p["wall_s"] for p in cold], batch),
        "cpu_s": batch_medians([p["cpu_s"] for p in cold], batch),
        "peak_rss_mb": statistics.median(
            [(r["maxrss_kb"] + r["children_maxrss_kb"]) / 1024 for r in reps]),
    }
    detail = {"passes": len(reps), "batch": batch, "setup_samples": setups,
              "wall_samples": [p["wall_s"] for p in cold]}
    return metrics, tally, detail


def measure_traced(runner, workload):
    """One instrumented run and one profiled run of the workload."""
    spec = WORKLOADS[workload]
    inline = {"name": "inline", "jobs": 0, "cache": None, "kernel": True}
    passes = [inline]
    if spec["cache"]:
        passes = [{"name": "cold", "jobs": spec["jobs"], "cache": "fresh"},
                  {"name": "warm", "jobs": spec["jobs"], "cache": "reuse"},
                  inline]
    instrumented, _took = runner.child(passes)
    # The profiler cannot follow forked workers, and a pool's parent mostly
    # waits, so every workload profiles the inline pass.
    profiled, _took = runner.child(
        [dict(inline, name="profiled", profile=True, kernel=False)])

    tally = Tally()
    for report in (instrumented, profiled):
        for pass_report in report["passes"]:
            tally.add(spec["modules"], pass_report,
                      cold=pass_report["name"] != "warm")

    by_name = {p["name"]: p for p in instrumented["passes"]}
    inline_pass = by_name["inline"]
    kernel = inline_pass.get("kernel")
    metrics = {
        "kernel.runs": kernel["runs"] if kernel else None,
        "kernel.events_fired": kernel["events"] if kernel else None,
        "kernel.events_per_s": (kernel["events"] / inline_pass["wall_s"]
                                if kernel else None),
        "startup.import_s": instrumented["import_s"],
        "startup.modules": instrumented["modules"],
    }
    if spec["cache"]:
        metrics.update(executor_metrics(by_name["cold"], inline_pass))
        metrics.update(store_metrics(by_name["cold"], by_name["warm"]))
    else:
        metrics.update(executor_metrics(inline_pass, None))
        # An inline workload uses no store.
        metrics.update({"store.misses": 0, "store.writes": 0,
                        "store.hits": 0, "store.warm_s": 0.0})
    metrics.update(profile_metrics(profiled["passes"][0],
                                   inline_pass["wall_s"]))
    return metrics, tally, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    start = time.monotonic()
    try:
        set_vars = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
        if set_vars:
            raise BenchError("refusing to run: " + ", ".join(set_vars)
                             + " select(s) a non-default program")
        _checkout_ok()
        stamp = host_stamp()
        modules = module_order(options.workload, options.seed)
        runner = Runner(modules, WORK, prepare(WORK), start + BUDGET_S)
        if options.trace:
            measured = measure_traced(runner, options.workload)
        else:
            measured = measure_untraced(runner, options.workload,
                                        options.seconds, start)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics, tally, detail = measured
    attempted, failed = tally.attempted, tally.failed
    stamp["loadavg_after"] = list(os.getloadavg())
    units = declared_units(options.trace)
    if set(units) != set(metrics):
        print("perfbench: measured metrics differ from BENCHMARK.json: "
              + ", ".join(sorted(set(units) ^ set(metrics))), file=sys.stderr)
        return 2
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report = {"workload": options.workload, "seed": options.seed,
              "seconds": options.seconds, "trace": options.trace,
              "modules": modules, "host": stamp, "problems": tally.problems,
              "detail": detail, "result": result}
    with open(os.path.join(WORK, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"workload {options.workload}  seed {options.seed}  "
          f"modules {' '.join(modules)}")
    print("host " + json.dumps(stamp, sort_keys=True))
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(f"{'failed_frac':<32} {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} tables+cells)")
    for name, entry in result["metrics"].items():
        value = entry["value"]
        shown = ("unmeasured" if value is None else
                 str(value) if isinstance(value, int) else f"{value:.6g}")
        print(f"{name:<32} {shown} {entry['unit']}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
