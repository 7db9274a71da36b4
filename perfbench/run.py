"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload portal-reads --seed 1 --seconds 30 --trace 0

Run from the root of a checkout of the repository; the program is
imported from that checkout's ``src`` directory and nothing else.  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the workload runs with spans recorded around each layer's
entry points on every other round and the metrics are the per-layer
ones (the span file goes to ``.bench_build/perfbench/``).  ``--smoke``
runs a seconds-long, scaled-down version with the same checks.

Exit status: 0 when every output check passed, 1 when one failed, 2
when the program cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: end-to-end metric -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "checkpoint_s": "s",
    "recover_s": "s",
    "catchup_s": "s",
    "log_bytes_per_write": "B",
    "snapshot_kb": "KB",
    "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro was imported from {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("portal-reads", "clinical-writes", "restart"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long scaled-down workload, same checks")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import layers
    import workloads
    from hospital import CheckFailed
    from tracing import Tracer

    shapes = workloads.SMOKE if args.smoke else workloads.WORKLOADS
    base = os.path.join(ROOT, ".bench_build", "perfbench")
    workdir = os.path.join(base, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = Tracer() if args.trace else None
    run = workloads.Run(
        args.workload, args.seed, args.seconds, workdir, shapes[args.workload], tracer
    )
    correct = True
    try:
        run.execute()
    except CheckFailed as exc:
        correct = False
        print(f"output check failed: {exc}", flush=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for name in sorted(run.attempted):
        samples = run.by_class.get(name) or [float("nan")]
        quantiles = " ".join(
            f"p{pct} {workloads.percentile(samples, pct):.3f}" for pct in (50, 90, 99)
        )
        print(
            f"op {name}: attempted {run.attempted[name]} failed {run.failed[name]} "
            f"ms {quantiles} max {max(samples):.3f}"
        )
    print(f"rounds: {len(run.rounds)}")
    attempted = sum(run.attempted.values())
    failed = sum(run.failed.values())
    metrics = {}
    if correct and run.rounds:
        if tracer is None:
            values = run.end_to_end()
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        else:
            values = layers.per_layer(run)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            trace_path = os.path.join(base, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed})
            print(f"spans: {len(tracer.spans)} written to {os.path.relpath(trace_path, ROOT)}")
    print(json.dumps(
        {"correct": correct, "attempted": max(1, attempted), "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
