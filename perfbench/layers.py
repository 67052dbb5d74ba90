"""Attribute a cProfile run's self time and calls to the repo's layers.

A layer is a set of modules under ``src/repro``.  Each profiled Python
function belongs to the layer of the file it is defined in.  A built-in
function has no file, so its time and calls go to the layer of each
caller, edge by edge.  What no layer claims (the standard library, bench
modules, built-ins called from outside any layer) goes to ``other``.

Times are summed in integer nanoseconds, so the layers plus ``other``
add up to the profiled total exactly.
"""

import os

#: layer -> module paths under src/repro (a directory claims every
#: module below it).  Order matters only for readability.
LAYERS = {
    "kernel": ["common/simulator.py", "common/psim.py", "common/topology.py"],
    "resources": ["common/queueing.py", "common/stats.py"],
    "dataflow.pe": ["dataflow/pe.py"],
    "dataflow.mapping": ["dataflow/mapping.py"],
    "dataflow.tags": ["dataflow/tags.py"],
    "dataflow.exec_core": ["dataflow/exec_core.py"],
    "dataflow.token": ["dataflow/token.py"],
    "dataflow.machine": ["dataflow/machine.py"],
    "dataflow.other": ["dataflow/"],
    "istructure": ["istructure/"],
    "compile": ["graph/", "lang/"],
    "network": ["network/"],
    "vonneumann.processor": ["vonneumann/processor.py"],
    "vonneumann.multithreaded": ["vonneumann/multithreaded.py"],
    "vonneumann.cache": ["vonneumann/cache.py"],
    "vonneumann.coherence": ["vonneumann/coherence.py"],
    "vonneumann.memory": ["vonneumann/memory.py"],
    "vonneumann.assembler": ["vonneumann/assembler.py"],
    "vonneumann.other": ["vonneumann/"],
    "machines": ["machines/"],
    "obs": ["obs/"],
    "executor": ["exp/", "serve/"],
}

OTHER = "other"


class LayerMap:
    """Maps source files to layers for one checkout's ``src/repro``."""

    def __init__(self, package_dir):
        self.package_dir = os.path.realpath(package_dir)
        self._memo = {}
        # Longest prefix first, so a file claims its most specific layer.
        self._prefixes = sorted(
            ((prefix, layer) for layer, prefixes in LAYERS.items()
             for prefix in prefixes),
            key=lambda item: -len(item[0]))

    def present(self, layer):
        """Whether any of the layer's modules exists in this checkout."""
        return any(os.path.exists(os.path.join(self.package_dir, prefix))
                   for prefix in LAYERS[layer])

    def layer_of(self, filename):
        layer = self._memo.get(filename)
        if layer is None:
            layer = OTHER
            rel = os.path.relpath(os.path.realpath(filename),
                                  self.package_dir).replace(os.sep, "/")
            if not rel.startswith("../"):
                for prefix, name in self._prefixes:
                    if rel == prefix or (prefix.endswith("/")
                                         and rel.startswith(prefix)):
                        layer = name
                        break
            self._memo[filename] = layer
        return layer


def _ns(seconds):
    return round(seconds * 1e9)


def attribute(entries, layer_map):
    """Self time (ns) and calls per layer from ``Profile.getstats()``.

    Returns ``({layer: [self_ns, calls]}, total_ns)``; the values of
    every layer, ``other`` included, sum exactly to ``total_ns``.
    """
    buckets = {layer: [0, 0] for layer in list(LAYERS) + [OTHER]}
    total = 0
    # Built-ins are keyed by their description; two entries may share one.
    builtin_totals = {}  # description -> [ns, calls] profiled
    builtin_edges = {}  # description -> [ns, calls] given to callers
    for entry in entries:
        if isinstance(entry.code, str):
            own = builtin_totals.setdefault(entry.code, [0, 0])
            own[0] += _ns(entry.inlinetime)
            own[1] += entry.callcount
            continue
        layer = layer_map.layer_of(entry.code.co_filename)
        ns = _ns(entry.inlinetime)
        buckets[layer][0] += ns
        buckets[layer][1] += entry.callcount
        total += ns
        for sub in entry.calls or ():
            if not isinstance(sub.code, str):
                continue
            ns = _ns(sub.inlinetime)
            buckets[layer][0] += ns
            buckets[layer][1] += sub.callcount
            seen = builtin_edges.setdefault(sub.code, [0, 0])
            seen[0] += ns
            seen[1] += sub.callcount
    for code, (ns, calls) in builtin_totals.items():
        seen = builtin_edges.get(code, [0, 0])
        # Built-ins called from another built-in, or from the top level,
        # are left over after the per-caller split.
        buckets[OTHER][0] += ns - seen[0]
        buckets[OTHER][1] += calls - seen[1]
        total += ns
    return buckets, total
