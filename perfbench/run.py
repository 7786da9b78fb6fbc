"""Run one benchmark workload and print its metrics; see ``BENCHMARK.json``.

Usage::

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the
workload again with span wrappers around each layer's entry points and
reports the per-layer metrics (spans are written to
``perfbench/_out/spans-<workload>-seed<seed>.jsonl``).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give each metric with its
unit and sample count, the checks, and the recorded input properties.
The exit code is 0 only when every correctness check passed.

End-to-end metrics, per workload.  Every workload reports all of them,
and ``BENCHMARK.json`` bounds each.

=================  =========================  ===============================  =========================
metric             serve-cold                 serve-mixed                      ingest-refresh
=================  =========================  ===============================  =========================
setup_s            cold build + service       snapshot restore + front-end     initial build of the
                   (median of 3)              start + first answer (med. 9)    base store (median of 3)
peak_rss_mb        peak resident memory of    the same, until the phases end   peak resident memory of
                   the workload process       (before the checks)              the workload process
throughput_per_s   distinct cold queries / s  goodput at saturation: answers   GPS trajectories made
                   (median over passes of     within 100 ms / s, 128 requests  answerable / s (match +
                   500 keys)                  outstanding (median of windows)  append + refresh + save;
                                                                               median over batches)
latency_p50_ms     per-query latency (median  every request at the nominal     reads of probes the batch
                   over passes of the p50)    rate, from its due time          dirtied, after refresh
latency_tail_ms    p99 of every answer        p95 of the same                  p95 of the same
secondary_ms       mean latency of queries    route requests at the nominal    freshness: batch handed
                   on paths of >= 10 edges    rate, from their due time; 3 in  over -> first probe answer
                   (median over passes)       4 are fresh route searches       (median over batches)
=================  =========================  ===============================  =========================

Every time and rate above is scaled to the host's speed, sampled with a
fixed piece of the benchmark's own reference work next to each unit of
measured work (see :mod:`perfbench.hostspeed`); of a serve-mixed latency
only the computing part is scaled, not the wait in the admission queue
(which holds the coalescer's linger timer).  The unscaled values and the
factors are printed with the inputs.

Each printed metric line also gives the workload's own name for the metric
(``cold_qps``, ``goodput_qps``, ``freshness_p50_s``, ...; see
:data:`WORKLOAD_NAMES`), and ``failed_share`` is ``failed / attempted``.

A request that fails, is shed or times out counts as missing every latency
limit (infinite latency).  ``failed`` counts errors, unmatched GPS
trajectories and requests not answered at the nominal rate; requests
timed out in the saturation phase are not failures but lower the goodput.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("serve-cold", "serve-mixed", "ingest-refresh")
#: What each shared metric is called on each workload: (name, scale, unit).
WORKLOAD_NAMES = {
    "serve-cold": {
        "throughput_per_s": ("cold_qps", 1.0, "1/s"),
        "latency_p50_ms": ("cold_p50_ms", 1.0, "ms"),
        "latency_tail_ms": ("cold_p99_ms", 1.0, "ms"),
        "secondary_ms": ("cold_long_mean_ms", 1.0, "ms"),
    },
    "serve-mixed": {
        "throughput_per_s": ("goodput_qps", 1.0, "1/s"),
        "latency_p50_ms": ("mixed_p50_ms", 1.0, "ms"),
        "latency_tail_ms": ("mixed_p95_ms", 1.0, "ms"),
        "secondary_ms": ("mixed_route_p50_ms", 1.0, "ms"),
    },
    "ingest-refresh": {
        "throughput_per_s": ("ingest_traj_per_s", 1.0, "1/s"),
        "latency_p50_ms": ("read_p50_ms", 1.0, "ms"),
        "latency_tail_ms": ("read_p95_ms", 1.0, "ms"),
        "secondary_ms": ("freshness_p50_s", 1e-3, "s"),
    },
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = completed.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        sys.stderr.write(completed.stderr)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            last = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] &= bool(last["correct"]) and completed.returncode == 0
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for name, metric in last["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {ROOT / 'src' / 'repro'}\n")
        return 2
    if args.workload == "all":
        return _run_all(args)

    # One BLAS thread, pinned before numpy loads; the open loop's generator
    # and the front-end worker are the only busy threads.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[variable] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro import limit_blas_threads

    limit_blas_threads(1)
    from perfbench.common import OUT_DIR, declared_metrics

    module = importlib.import_module("perfbench." + args.workload.replace("-", "_"))
    trace = bool(args.trace)
    result = module.run(args.seed, args.seconds, trace)

    declared = declared_metrics("per_layer" if trace else "end_to_end")
    print("inputs " + json.dumps(result.inputs, sort_keys=True))
    for name, ok, detail in result.checks:
        print(f"check {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        result.recorder.write_jsonl(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        undeclared = sorted(set(result.layers) - set(declared))
        if undeclared:
            sys.stderr.write(f"perfbench: {undeclared} not declared in BENCHMARK.json\n")
            return 1
        metrics = {
            name: {"value": result.layers[name], "unit": unit}
            for name, unit in declared.items()
            if name in result.layers
        }
        for name, metric in metrics.items():
            print(f"layer {name} = {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = {}
        for name, metric in result.metrics.items():
            note = f", {metric.note}" if metric.note else ""
            note += ", scaled to host speed" if metric.scaled else ""
            alias, scale, unit = WORKLOAD_NAMES[args.workload].get(name, (name, 1.0, metric.unit))
            reported = f"reported as {name}" if name in declared else "not in BENCHMARK.json"
            print(
                f"metric {alias} = {metric.value * scale:.6g} {unit} "
                f"(n={metric.samples}{note}; {reported})"
            )
            metrics[name] = {"value": metric.value, "unit": metric.unit}
        print(
            f"metric failed_share = {result.failed / max(result.attempted, 1):.6g} ratio "
            f"(n={result.attempted}; reported as failed / attempted)"
        )
    missing = [name for name in declared if name not in metrics]
    if missing:
        sys.stderr.write(f"perfbench: no value for {missing} declared in BENCHMARK.json\n")
        return 1
    metrics = {name: metrics[name] for name in declared}
    not_finite = [name for name, metric in metrics.items() if not math.isfinite(metric["value"])]
    if not_finite:
        sys.stderr.write(f"perfbench: no finite value for {not_finite}\n")
        return 1
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
