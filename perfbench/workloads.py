"""The benchmark's workloads: which bench modules run, how, and in what order.

A workload is a closed loop over bench modules.  Each module is handed to
``repro bench`` on its own (``--only <exact module name>``), and its
tables must finish before the next module starts.  ``repro bench``
selects whole modules, so the seed permutes module order; a module's own
tables keep their suite order.
"""

import random

#: workload -> {"jobs": worker processes for the cold pass (0 = inline),
#:              "cache": run the cold pass against a fresh result cache
#:                       and follow it with a warm pass,
#:              "batch": cold passes averaged into one timing sample
#:                       (default 1),
#:              "modules": {bench module: [tables it must produce]}}
WORKLOADS = {
    "dataflow": {
        "jobs": 0,
        "cache": False,
        "modules": {
            "bench_e07_trapezoid": ["e07_trapezoid"],
            "bench_e10_ttda_scaling": ["e10_ttda_scaling",
                                       "e10b_mapping_ablation"],
            "bench_e12_matching_store": ["e12_matching_store",
                                         "e12b_matching_store_pes"],
            "bench_e16_dataflow_overhead": ["e16_dataflow_overhead"],
            "bench_e17_wm_capacity": ["e17_wm_capacity"],
        },
    },
    "vn_survey": {
        "jobs": 0,
        "cache": False,
        # A pass takes about a third of the others'; three make a sample.
        "batch": 3,
        "modules": {
            "bench_e03_cache_coherence": ["e03_cache_coherence",
                                          "e03b_write_policy"],
            "bench_e04_cmstar_locality": ["e04_cmstar_locality"],
            "bench_e05_fetch_and_add": ["e05_fetch_and_add"],
            "bench_e09_context_depth": ["e09_context_depth"],
            "bench_e13_cmmp_crossbar": ["e13_cmmp_crossbar",
                                        "e13b_semaphore_cost"],
            "bench_e18_cmstar_microtasking": ["e18_cmstar_microtasking"],
        },
    },
    "sweep_pool": {
        "jobs": 2,
        "cache": True,
        "modules": {
            "bench_e01_latency_tolerance": ["e01_latency_tolerance"],
            "bench_e04_cmstar_locality": ["e04_cmstar_locality"],
            "bench_e05_fetch_and_add": ["e05_fetch_and_add"],
            "bench_e07_trapezoid": ["e07_trapezoid"],
            "bench_e10_ttda_scaling": ["e10_ttda_scaling",
                                       "e10b_mapping_ablation"],
            "bench_e13_cmmp_crossbar": ["e13_cmmp_crossbar",
                                        "e13b_semaphore_cost"],
            "bench_e20_fault_tolerance": ["e20_fault_tolerance"],
        },
    },
}

#: Variables that select a non-default program; a run refuses to start
#: while any of them is set.
FORBIDDEN_ENV = ("REPRO_SIM_KERNEL", "REPRO_SIM_SHARDS", "REPRO_PSIM_MODE",
                 "REPRO_EXEC_MODE", "REPRO_FAULT_PLAN", "REPRO_EXP_CACHE",
                 "REPRO_BENCH_DIR")


def module_order(workload, seed):
    """The workload's bench modules in the order ``seed`` gives them."""
    modules = sorted(WORKLOADS[workload]["modules"])
    random.Random(seed).shuffle(modules)
    return modules


def tables(workload):
    """Every table the workload must produce, in suite order per module."""
    return [table for names in WORKLOADS[workload]["modules"].values()
            for table in names]
