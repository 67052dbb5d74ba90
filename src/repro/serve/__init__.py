"""Simulation-as-a-service: a sweep scheduler with a durable store.

``repro serve`` turns the batch experiment engine into a long-running
service — the paper's latency-tolerance argument applied to our own
pipeline.  A persistent worker pool (:mod:`~repro.serve.scheduler`)
executes sweep cells with straggler backup tasks and worker-failure
recovery; the content-addressed result store that ``repro bench`` also
writes (:mod:`repro.exp.cache`) answers repeat sweeps without
simulating; a stdlib asyncio HTTP front end
(:mod:`~repro.serve.server`) and client (:mod:`~repro.serve.client`)
carry the JSON protocol (:mod:`~repro.serve.protocol`).

See ``docs/SERVICE.md`` for the API reference and deployment notes.

The package imports none of its submodules, so ``import repro.cli``
(which needs only :data:`~repro.serve.protocol.DEFAULT_PORT`) does not
load the server, scheduler, client or :mod:`repro.predict`.  Import the
submodules directly.
"""
