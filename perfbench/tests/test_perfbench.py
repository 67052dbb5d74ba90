"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q

The end-to-end tests drive the smallest bench module (e16, one cell) in
child interpreters, the way a benchmark run does.
"""

import cProfile
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, module_order, tables  # noqa: E402

TINY = {"bench_e16_dataflow_overhead": ["e16_dataflow_overhead"]}
INLINE = {"name": "cold", "jobs": 0, "cache": None}


def _suite():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run_all", os.path.join(ROOT, "benchmarks", "run_all.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EXPERIMENTS


def test_workloads_map_to_exactly_their_tables():
    assert sorted(tables("dataflow")) == sorted([
        "e07_trapezoid", "e10_ttda_scaling", "e10b_mapping_ablation",
        "e12_matching_store", "e12b_matching_store_pes",
        "e16_dataflow_overhead", "e17_wm_capacity"])
    assert sorted(tables("vn_survey")) == sorted([
        "e03_cache_coherence", "e03b_write_policy", "e04_cmstar_locality",
        "e05_fetch_and_add", "e09_context_depth", "e13_cmmp_crossbar",
        "e13b_semaphore_cost", "e18_cmstar_microtasking"])
    assert sorted(tables("sweep_pool")) == sorted([
        "e01_latency_tolerance", "e04_cmstar_locality", "e05_fetch_and_add",
        "e07_trapezoid", "e10_ttda_scaling", "e10b_mapping_ablation",
        "e13_cmmp_crossbar", "e13b_semaphore_cost", "e20_fault_tolerance"])


def test_module_selection_yields_exactly_the_listed_tables():
    suite = _suite()
    for workload in WORKLOADS:
        for module, expected in WORKLOADS[workload]["modules"].items():
            # `repro bench --only` keeps a (module, table) pair when the
            # argument is a substring of either name.
            selected = [out for name, runners in suite
                        for _fn, out in runners
                        if module in name or module in out]
            assert selected == expected, (workload, module)


def test_seed_permutes_module_order_deterministically():
    for workload in WORKLOADS:
        modules = sorted(WORKLOADS[workload]["modules"])
        orders = {tuple(module_order(workload, seed)) for seed in range(20)}
        assert all(sorted(order) == modules for order in orders)
        assert len(orders) > 1
        assert module_order(workload, 7) == module_order(workload, 7)


def _runner(tmp_path, baseline_dir=None):
    work = str(tmp_path / "work")
    bench_dir = run.prepare(work)
    kwargs = {"baseline_dir": baseline_dir} if baseline_dir else {}
    return run.Runner(list(TINY), work, bench_dir, time.monotonic() + 120,
                      **kwargs)


def test_clean_tiny_run_has_no_failures(tmp_path):
    report, _took = _runner(tmp_path).child([INLINE])
    attempted, failed, problems = run.assess(TINY, report["passes"][0], True)
    assert (attempted, failed, problems) == (2, 0, [])


def test_perturbed_baseline_counts_as_failure(tmp_path):
    baselines = tmp_path / "baselines"
    shutil.copytree(os.path.join(ROOT, "benchmarks", "baselines"), baselines)
    path = baselines / "e16_dataflow_overhead.json"
    baseline = json.loads(path.read_text())
    row = baseline["rows"][0]
    column = next(i for i, value in enumerate(row)
                  if isinstance(value, (int, float))
                  and "wall" not in baseline["columns"][i].lower())
    row[column] = row[column] + 1
    path.write_text(json.dumps(baseline))

    report, _took = _runner(tmp_path, str(baselines)).child([INLINE])
    attempted, failed, problems = run.assess(TINY, report["passes"][0], True)
    assert failed == 1
    assert problems == ["e16_dataflow_overhead: drifts from its baseline"]


def test_cold_pass_served_from_cache_counts_as_failure(tmp_path):
    report, _took = _runner(tmp_path).child([
        {"name": "fill", "jobs": 0, "cache": "fresh"},
        {"name": "again", "jobs": 0, "cache": "reuse"}])
    fill, again = report["passes"]
    assert run.assess(TINY, fill, cold=True)[1] == 0
    assert run.assess(TINY, again, cold=False)[1] == 0
    attempted, failed, problems = run.assess(TINY, again, cold=True)
    assert failed == 1
    assert "served from cache" in problems[0]


def test_profiled_layers_sum_exactly_and_calls_repeat(tmp_path):
    profiled = dict(INLINE, name="profiled", profile=True)
    runner = _runner(tmp_path)
    runs = [runner.child([profiled])[0]["passes"][0]["profile"]
            for _ in range(2)]
    for profile in runs:
        present = [values for values in profile["layers"].values()
                   if values is not None]
        assert sum(ns for ns, _calls in present) == profile["total_ns"]
        assert profile["layers"]["dataflow.exec_core"][0] > 0
    calls = [{layer: values and values[1]
              for layer, values in profile["layers"].items()}
             for profile in runs]
    assert calls[0] == calls[1]


def test_builtins_are_attributed_to_their_caller_layer(tmp_path):
    package = tmp_path / "repro"
    (package / "common").mkdir(parents=True)
    source = package / "common" / "simulator.py"
    source.write_text("def spin(n):\n"
                      "    return [len(str(i)) for i in range(n)]\n")
    spec = importlib.util.spec_from_file_location("fake_sim", source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    profiler = cProfile.Profile()
    profiler.enable()
    module.spin(2000)
    profiler.disable()
    layer_map = layers.LayerMap(str(package))
    buckets, total = layers.attribute(profiler.getstats(), layer_map)
    assert sum(ns for ns, _calls in buckets.values()) == total
    # spin, its list comprehension and the 2000 `len` calls it makes.
    assert buckets["kernel"][1] == 2002
    assert buckets["kernel"][0] > 0
    assert layer_map.present("kernel")
    assert not layer_map.present("dataflow.pe")


def test_missing_cell_events_leave_executor_unmeasured():
    cold = {"jobs": 2, "wall_s": 1.0, "store_files": 3,
            "modules": {"m": {"cells": None}}}
    assert set(run.executor_metrics(cold, None).values()) == {None}
    assert run.store_metrics(cold, cold)["store.hits"] is None


def _bare_copy(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark."""
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(PERFBENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return bare


@pytest.mark.parametrize("env", [{}, {"REPRO_EXEC_MODE": "batch"}])
def test_refuses_without_printing_a_result(tmp_path, env):
    cwd = ROOT if env else _bare_copy(tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vn_survey",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, **env))
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
