"""The repository benchmark: seeded workloads, end-to-end and per-layer metrics.

Run one workload per process::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 15 --trace 0

or every workload, each in its own process, with ``--workload all``.
``BENCHMARK.json`` at the repository root lists the workloads and the
metrics; :mod:`perfbench.run` documents what each metric means on each
workload.

The helper modules :mod:`perfbench.stats`, :mod:`perfbench.spans` and
:mod:`perfbench.openloop` do not import :mod:`repro`; the workload modules
reach it only through its public functions.
"""
