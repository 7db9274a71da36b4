"""Check that the benchmark is steady: two interleaved sets of runs agree.

Usage::

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workload restart --runs 3 --seconds 30

For each workload, runs ``perfbench/run.py`` ``--runs`` times per set,
each run with its own seed, alternating between the sets (set A takes
seeds 1, 2, ..., set B seeds 1001, 1002, ...), one run at a time.  For
every end-to-end metric it prints each set's median and quartiles, the
quartile spread as a share of the median (per set and over all runs),
then whether the sets agree with the bounds in ``BENCHMARK.json``:

* each set's spread is within the metric's bound (``setup_s`` exempt);
* set B's median is not worse than set A's by more than the bound;
* the share of failed operations is identical in every run.

Before each run a fixed pure-Python loop is timed, and its spread over
the runs is printed beside the metrics: on a shared host, much of the
spread of a CPU-bound timing is the host's own.

Exit status 0 when every workload agrees, 1 otherwise.  Every run's
result is also written to ``.bench_build/perfbench/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop, taken before each run:
    the host's own speed, measured beside the benchmark's figures."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else 0.0


def verdict(spec: dict, sets: list) -> bool:
    """Print one workload's table; True when the sets agree."""
    ok = True
    shares = {run["failed"] / run["attempted"] for runs in sets for run in runs}
    if len(shares) > 1:
        print(f"  failed share differs between runs: {sorted(shares)}")
        ok = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        cells, medians = [], []
        for label, runs in zip("AB", sets):
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3, share = spread(values)
            medians.append(median)
            flag = ""
            if name != "setup_s" and share > bound:
                flag, ok = " SPREAD", False
            cells.append(f"{label}: {median:10.4g} [{q1:.4g}, {q3:.4g}] {share:6.1%}{flag}")
        pooled = spread([run["metrics"][name]["value"] for runs in sets for run in runs])[3]
        change = (medians[1] - medians[0]) / medians[0]
        worse = change if metric["better"] == "lower" else -change
        line = (
            f"  {name:20s} bound {bound:4.0%}  " + "  ".join(cells)
            + f"  all runs {pooled:6.1%}  B vs A {change:+6.1%}"
        )
        if worse > bound:
            line += " WORSE"
            ok = False
        print(line)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to check (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]
    names = args.workload or [w["name"] for w in spec["workloads"]]
    results = {}
    all_ok = True
    for name in names:
        sets = [[], []]
        for index in range(args.runs):
            for number, runs in enumerate(sets):
                seed = 1 + index + 1000 * number
                loop_ms = host_loop_ms()
                result = run_once(name, seed, seconds)
                result["host_loop_ms"] = loop_ms
                runs.append(result)
                print(f"{name} set {'AB'[number]} seed {seed}: {result['wall_s']:.0f} s, "
                      f"correct {result['correct']}", flush=True)
        results[name] = sets
        print(f"{name}: {args.runs} runs per set, {seconds} s each")
        q1, median, q3, share = spread([r["host_loop_ms"] for runs in sets for r in runs])
        print(f"  host loop before each run: median {median:.1f} ms [{q1:.1f}, {q3:.1f}] "
              f"spread {share:.1%}")
        all_ok &= verdict(spec, sets) and all(r["correct"] for runs in sets for r in runs)
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    print(f"{'sets agree' if all_ok else 'sets DISAGREE'}; runs written to "
          f"{os.path.relpath(path, ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
