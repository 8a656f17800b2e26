#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark on two checkouts.

Runs `perfbench/run.py` of a parent checkout and of a change checkout on each
workload named, N pairs in turn, with the side that runs first swapped in
each pair; the workloads run one after another. Prints every pair's values,
then per workload a summary block: for each end-to-end metric each side's
median and quartiles, how many pairs the change won (a tie counts for
neither side), whether the gap between the medians lies inside the parent's
interquartile range or beyond it, better or worse, and whether the change's
median is worse than the parent's by more than the metric's `bound` in
`BENCHMARK.json`, a fraction of the parent's median; then each side's
median and quartiles of the unscaled wall seconds of the timed part and of
set-up; last, whether every pair printed equal digests. Exits 1 when a pair's
digests differ or a run fails its own output checks, on any workload.

    python3 tools/bench_ab.py PARENT_DIR CHANGE_DIR --workload analyze_400 \
        --workload qlfr_default --workload dbr_dense_800 -n 10 --json BENCH.json

With `--json PATH` each workload's summary block is also added, as it
finishes, to the list under "workloads" in the JSON file PATH: its seed,
pairs and seconds per run, per metric its bound, both sides' quartiles,
the relative median change, the pairs the change won, the gap against the
parent's IQR ("gap": "better", "worse" or "inside") and whether it is worse
than the bound ("past_bound"), the digest and output-check verdicts, and
where it ran: the Python version, `platform.platform()`, `os.cpu_count()` and
each side's quartiles of the host probe `host_ref_s` that `perfbench/run.py`
prints for every run. Under "wall_s" it records both sides' quartiles of the
wall seconds of `run_s` and `setup_s` before the probe scales them, which
`perfbench/run.py` prints as `wall run_s ... s (not scaled)` and `wall
setup_s ...`; they show whether a move of a scaled time came from the probe.
A file that exists keeps its other keys and earlier
blocks, so runs on other seeds or workloads collect in one file.

Each checkout runs its own `perfbench/run.py` against its own `src/`, so the
two sides must carry the same benchmark code for the comparison to hold:
before any run, the command exits 2 and names the first file that differs
when the two `BENCHMARK.json` files, or the files under `perfbench/` (but
`perfbench/out/` and `__pycache__/`), are not the same.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def benchmark_files(checkout: Path) -> dict[str, Path]:
    """`BENCHMARK.json` and the files under `perfbench/` but `perfbench/out/`
    and `__pycache__/`, by path relative to `checkout`."""
    paths = [checkout / "BENCHMARK.json", *(checkout / "perfbench").rglob("*")]
    files = {}
    for path in paths:
        rel = path.relative_to(checkout).parts
        if path.is_file() and rel[:2] != ("perfbench", "out") and "__pycache__" not in rel:
            files["/".join(rel)] = path
    return files


def first_difference(parent: Path, change: Path) -> str | None:
    """The first benchmark file, in path order, that one checkout lacks or
    that differs between the two; None when they carry the same benchmark."""
    a, b = benchmark_files(parent), benchmark_files(change)
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b or a[name].read_bytes() != b[name].read_bytes():
            return name
    return None


WALL = ("run_s", "setup_s")  # the times `perfbench/run.py` also prints unscaled


def _printed(lines: list[str], prefix: str) -> float:
    """The number after `prefix` on the first output line that starts with it."""
    return next(float(line[len(prefix):].split()[0]) for line in lines
                if line.startswith(prefix))


def run_once(checkout: Path, workload: str, seed: int, seconds: int):
    """(metric name -> value, digest lines, passed its output checks) of one
    run; the metrics include the host probe's `host_ref_s` and the unscaled
    wall seconds `wall_run_s` and `wall_setup_s`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["host_ref_s"] = _printed(lines, "host_ref_s ")
    for name in WALL:
        metrics[f"wall_{name}"] = _printed(lines, f"wall {name} ")
    digests = [line for line in lines if line.startswith("digest ")]
    return metrics, digests, bool(result["correct"]) and result["failed"] == 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare paired runs of one metric; `better` is "lower" or "higher", and
    `bound` the loss of the change's median the benchmark allows, as a
    fraction of the parent's median."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain, iqr = sign * (pmed - cmed), pq3 - pq1  # gain < 0: the change is worse
    return {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3), "wins": wins,
            "pairs": len(parent), "rel": (cmed - pmed) / pmed if pmed else float("nan"),
            "gap": "better" if gain > iqr else "worse" if -gain > iqr else "inside",
            "past_bound": -gain > bound * abs(pmed)}


_GAP = {"better": "better, beyond the parent IQR", "worse": "WORSE, beyond the parent IQR",
        "inside": "inside the parent IQR"}


def compare(sides: dict, workload: str, pairs: int, seed: int, metrics: dict,
            seconds: int) -> dict:
    """Run and print the pairs of one workload, then its summary block, which
    it returns. `metrics` maps each metric's name to its (better, bound)."""
    recorded = [*metrics, "host_ref_s", *(f"wall_{name}" for name in WALL)]
    samples = {side: {name: [] for name in recorded} for side in sides}
    digests_equal, all_correct = True, True
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        digests = {}
        for side in order:
            values, digests[side], correct = run_once(sides[side], workload, seed, seconds)
            all_correct = all_correct and correct
            for name, sample in samples[side].items():
                sample.append(values[name])
        equal = digests["parent"] == digests["change"]
        digests_equal = digests_equal and equal
        shown = "  ".join(f"{name} {samples['parent'][name][-1]:.4g} -> "
                          f"{samples['change'][name][-1]:.4g}" for name in metrics)
        print(f"{workload} pair {i + 1:2d} ({order[0]} first): {shown}  digests "
              f"{'equal' if equal else 'DIFFER'}", flush=True)

    print(f"\n{workload}, seed {seed}, {pairs} pairs of {seconds} s runs "
          "(median [q1, q3])")
    block = {"workload": workload, "seed": seed, "pairs": pairs, "seconds": seconds,
             "metrics": {}, "digests_equal": digests_equal, "outputs_checked": all_correct,
             "host": {"python": platform.python_version(), "platform": platform.platform(),
                      "cpu_count": os.cpu_count()},
             "host_ref_s": {side: quartiles(samples[side]["host_ref_s"]) for side in sides},
             "wall_s": {name: {side: quartiles(samples[side][f"wall_{name}"]) for side in sides}
                        for name in WALL}}
    for name, (direction, bound) in metrics.items():
        s = summarize(samples["parent"][name], samples["change"][name], direction, bound)
        block["metrics"][name] = dict(s, better=direction, bound=bound)
        (pq1, pmed, pq3), (cq1, cmed, cq3) = s["parent"], s["change"]
        print(f"{name:13s} parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}]  change {cmed:.4g} "
              f"[{cq1:.4g}, {cq3:.4g}]  {s['rel']:+.1%}  change won {s['wins']}/{s['pairs']}"
              f"  median gap {_GAP[s['gap']]}"
              f"  worse than the {bound * 100:g}% bound: {'YES' if s['past_bound'] else 'no'}"
              f"  ({direction} is better)")
    for name, q in block["wall_s"].items():
        (pq1, pmed, pq3), (cq1, cmed, cq3) = q["parent"], q["change"]
        print(f"wall {name:8s} parent {pmed:.4g} [{pq1:.4g}, {pq3:.4g}]  change {cmed:.4g} "
              f"[{cq1:.4g}, {cq3:.4g}]  {(cmed - pmed) / pmed:+.1%}  (s, not scaled)")
    print(f"digests equal in every pair: {'yes' if digests_equal else 'NO'}")
    print(f"every run passed its output checks: {'yes' if all_correct else 'NO'}\n",
          flush=True)
    return block


def append_block(path: Path, block: dict) -> None:
    """Add one summary block to the "workloads" list of the JSON file `path`."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("workloads", []).append(block)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def pair_count(text: str) -> int:
    """An argparse type: a whole number of pairs, at least 1."""
    pairs = int(text)
    if pairs < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 pair, got {pairs}")
    return pairs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True,
                    help="a workload to compare; repeat to run several in turn")
    ap.add_argument("-n", "--pairs", type=pair_count, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", type=Path, metavar="PATH",
                    help="add each workload's summary block to this JSON file")
    args = ap.parse_args(argv)

    differs = first_difference(args.parent, args.change)
    if differs is not None:
        print(f"error: the checkouts differ in {differs}; both must run the same benchmark",
              file=sys.stderr)
        return 2
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    passed = True
    for workload in args.workload:
        block = compare(sides, workload, args.pairs, args.seed, metrics, bench["run_seconds"])
        if args.json is not None:
            append_block(args.json, block)
        passed = passed and block["digests_equal"] and block["outputs_checked"]
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
