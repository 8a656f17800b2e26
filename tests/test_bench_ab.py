"""The A/B summary of `tools/bench_ab.py`: quartiles, win counts, the
median gap against the parent's IQR and against the metric's bound, on
hand-made paired samples, the loop over several workloads with a stubbed
benchmark run, the summary blocks `--json` writes, the unscaled wall times
read from a benchmark's output, and the refusal of two checkouts that carry
different benchmarks."""

import importlib.util
import json
import os
import platform
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


def test_quartiles_inclusive():
    assert bench_ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_lower_is_better_counts_wins_and_ignores_ties():
    parent = [1.00, 1.10, 1.20, 1.30, 1.40]
    change = [0.90, 1.10, 0.80, 1.50, 0.70]
    s = bench_ab.summarize(parent, change, "lower", 0.25)
    assert s["wins"] == 3 and s["pairs"] == 5  # the tie at 1.10 counts for neither
    assert s["parent"] == pytest.approx((1.10, 1.20, 1.30))
    assert s["change"][1] == 0.90
    assert s["rel"] == pytest.approx(-0.25)
    assert s["gap"] == "better"  # a median gap of 0.3 beyond an IQR of 0.2
    assert not s["past_bound"]


def test_higher_is_better_and_a_gap_inside_the_spread():
    parent = [10.0, 20.0, 30.0]
    change = [11.0, 21.0, 29.0]
    s = bench_ab.summarize(parent, change, "higher", 0.01)
    assert s["wins"] == 2
    assert s["gap"] == "inside"  # a median gap of 1 inside an IQR of 10
    assert not s["past_bound"]


@pytest.mark.parametrize("better, parent, change, gap, past_bound", [
    # a slower change: medians 1.0 -> 1.3 against an IQR of 0.05 and a 25% bound
    ("lower", [0.95, 1.0, 1.05], [1.25, 1.3, 1.35], "worse", True),
    # slower by 0.2: beyond the IQR of 0.05, within the bound of 0.25
    ("lower", [0.95, 1.0, 1.05], [1.15, 1.2, 1.25], "worse", False),
    # fewer events per second: 100 -> 70, past the 25% bound
    ("higher", [95.0, 100.0, 105.0], [65.0, 70.0, 75.0], "worse", True),
    # slower, but inside the parent's spread: an IQR of 0.5 holds a gap of 0.3
    ("lower", [0.5, 1.0, 1.5], [0.8, 1.3, 1.8], "inside", True),
], ids=["slower-past-bound", "slower-within-bound", "fewer-events-past-bound",
        "slower-inside-iqr"])
def test_a_worse_change_is_flagged(better, parent, change, gap, past_bound):
    # a regression once printed "gap exceeds parent IQR: no", however large
    s = bench_ab.summarize(parent, change, better, 0.25)
    assert s["wins"] == 0
    assert (s["gap"], s["past_bound"]) == (gap, past_bound)


WALL = {"wall_run_s": 1.5, "wall_setup_s": 0.25}  # what a stubbed run prints unscaled


def checkouts(tmp_path):
    """Two checkouts that carry the same BENCHMARK.json and perfbench files."""
    sides = tmp_path / "parent", tmp_path / "change"
    for side in sides:
        (side / "perfbench" / "tests").mkdir(parents=True)
        (side / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 35,
            "end_to_end": [{"name": "run_s", "better": "lower", "bound": 0.25},
                           {"name": "ok_frac", "better": "higher", "bound": 0.01}]}))
        (side / "perfbench" / "run.py").write_text("# the benchmark\n")
        (side / "perfbench" / "tests" / "test_run.py").write_text("# its test\n")
    return sides


def test_each_workload_runs_its_pairs_and_prints_its_block(tmp_path, monkeypatch, capsys):
    parent, change = checkouts(tmp_path)
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload))
        fast = checkout == change and workload == "fast"
        digest = f"digest {workload} {checkout.name if workload == 'drift' else 'same'}"
        values = {"run_s": 1.0 if fast else 2.0, "ok_frac": 1.0, "host_ref_s": 0.07, **WALL}
        return values, [digest], True

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    argv = [str(parent), str(change), "--workload", "fast", "--workload", "flat", "-n", "2"]
    assert bench_ab.main(argv) == 0
    assert calls == [("parent", "fast"), ("change", "fast"), ("change", "fast"),
                     ("parent", "fast"), ("parent", "flat"), ("change", "flat"),
                     ("change", "flat"), ("parent", "flat")]
    out = capsys.readouterr().out
    blocks = [line for line in out.splitlines() if ", seed 1, 2 pairs of 35 s runs" in line]
    assert [line.split(",")[0] for line in blocks] == ["fast", "flat"]
    fast = out[out.index("\nfast, seed 1"):out.index("flat pair  1")]
    flat = out[out.index("\nflat, seed 1"):]
    assert "run_s         parent 2 [2, 2]  change 1 [1, 1]  -50.0%  change won 2/2" in fast
    assert "run_s         parent 2 [2, 2]  change 2 [2, 2]  +0.0%  change won 0/2" in flat
    assert "digests equal in every pair: yes" in fast and "digests equal in every pair: yes" in flat
    assert "median gap better, beyond the parent IQR  worse than the 25% bound: no" in fast
    assert "median gap inside the parent IQR  worse than the 25% bound: no" in flat

    # one workload whose digests differ fails the whole command
    argv = [str(parent), str(change), "--workload", "drift", "--workload", "flat", "-n", "1"]
    assert bench_ab.main(argv) == 1
    out = capsys.readouterr().out
    assert out.count("digests equal in every pair: NO") == 1
    assert out.count("digests equal in every pair: yes") == 1


def test_json_collects_each_workloads_summary_block(tmp_path, monkeypatch, capsys):
    parent, change = checkouts(tmp_path)
    runs = iter([1.0, 2.0, 0.5, 3.0])  # fast: parent, change, change, parent
    probes = iter([0.06, 0.07, 0.08, 0.1])

    def run_once(checkout, workload, seed, seconds):
        run_s = next(runs) if workload == "fast" else 2.0
        host_ref_s = next(probes) if workload == "fast" else 0.07
        return ({"run_s": run_s, "ok_frac": 1.0, "host_ref_s": host_ref_s, **WALL},
                [f"digest {workload} {checkout.name}" if workload == "drift" else "digest same"],
                True)

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"tier1_s": 61.0}))
    argv = [str(parent), str(change), "--workload", "fast", "-n", "2", "--seed", "3",
            "--json", str(path)]
    assert bench_ab.main(argv) == 0
    argv = [str(parent), str(change), "--workload", "drift", "-n", "1", "--json", str(path)]
    assert bench_ab.main(argv) == 1
    capsys.readouterr()

    doc = json.loads(path.read_text())
    assert doc["tier1_s"] == 61.0  # a key the file had is kept
    fast, drift = doc["workloads"]
    assert {k: fast[k] for k in ("workload", "seed", "pairs", "seconds")} == {
        "workload": "fast", "seed": 3, "pairs": 2, "seconds": 35}
    assert fast["digests_equal"] and fast["outputs_checked"]
    assert fast["metrics"]["run_s"] == {
        "better": "lower", "parent": [1.5, 2.0, 2.5], "change": [0.875, 1.25, 1.625],
        "rel": -0.375, "wins": 1, "pairs": 2, "gap": "inside", "past_bound": False,
        "bound": 0.25}
    assert fast["metrics"]["ok_frac"]["wins"] == 0
    assert "host_ref_s" not in fast["metrics"]  # the probe is recorded, not compared
    assert fast["host_ref_s"] == {"parent": pytest.approx([0.07, 0.08, 0.09]),
                                  "change": pytest.approx([0.0725, 0.075, 0.0775])}
    assert fast["host"] == {"python": platform.python_version(),
                            "platform": platform.platform(), "cpu_count": os.cpu_count()}
    assert drift["workload"] == "drift" and drift["seed"] == 1
    assert not drift["digests_equal"] and drift["outputs_checked"]


FAKE_RUN = """\
import json, pathlib
change = pathlib.Path.cwd().name == "change"
print("host_ref_s 0.07 s (median of 3 probes; nominal 0.07 s)")
print(f"wall run_s {1.25 if change else 1.5!r} s (not scaled)")
print("wall setup_s 0.25 s (not scaled)")
print("digest w 0")
print(json.dumps({"correct": True, "failed": 0,
                  "metrics": {"run_s": {"value": 1.0}, "ok_frac": {"value": 1.0}}}))
"""


def test_unscaled_wall_times_are_recorded_and_printed(tmp_path, capsys):
    # a scaled time that moves with the host probe alone shows in the wall times
    parent, change = checkouts(tmp_path)
    for side in (parent, change):
        (side / "perfbench" / "run.py").write_text(FAKE_RUN)
    path = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--workload", "w", "-n", "2", "--json", str(path)]
    assert bench_ab.main(argv) == 0
    assert ("wall run_s    parent 1.5 [1.5, 1.5]  change 1.25 [1.25, 1.25]  -16.7%  "
            "(s, not scaled)") in capsys.readouterr().out
    block = json.loads(path.read_text())["workloads"][0]
    assert block["wall_s"] == {"run_s": {"parent": [1.5] * 3, "change": [1.25] * 3},
                               "setup_s": {"parent": [0.25] * 3, "change": [0.25] * 3}}
    assert block["metrics"]["run_s"]["parent"] == [1.0] * 3  # the scaled time


def test_a_slower_change_is_flagged_in_print_and_json(tmp_path, monkeypatch, capsys):
    parent, change = checkouts(tmp_path)

    def run_once(checkout, workload, seed, seconds):
        run_s = 2.0 if checkout == change else 1.0
        return {"run_s": run_s, "ok_frac": 1.0, "host_ref_s": 0.07, **WALL}, [], True

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    path = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--workload", "slow", "-n", "2", "--json", str(path)]
    assert bench_ab.main(argv) == 0  # only digests and output checks set the exit code
    out = capsys.readouterr().out
    assert ("run_s         parent 1 [1, 1]  change 2 [2, 2]  +100.0%  change won 0/2  "
            "median gap WORSE, beyond the parent IQR  worse than the 25% bound: YES") in out
    assert "median gap inside the parent IQR  worse than the 1% bound: no" in out
    metrics = json.loads(path.read_text())["workloads"][0]["metrics"]
    assert {k: metrics["run_s"][k] for k in ("gap", "past_bound", "bound")} == {
        "gap": "worse", "past_bound": True, "bound": 0.25}
    assert {k: metrics["ok_frac"][k] for k in ("gap", "past_bound", "bound")} == {
        "gap": "inside", "past_bound": False, "bound": 0.01}


def test_checkouts_with_different_benchmarks_are_refused_before_any_run(
        tmp_path, monkeypatch, capsys):
    parent, change = checkouts(tmp_path)
    calls = []
    monkeypatch.setattr(bench_ab, "run_once", lambda *args: calls.append(args) or (
        {"run_s": 1.0, "ok_frac": 1.0, "host_ref_s": 0.07, **WALL}, [], True))
    argv = [str(parent), str(change), "--workload", "flat", "-n", "1"]

    # what building and running leave behind does not count
    for junk in ("perfbench/out/result.json", "perfbench/__pycache__/run.cpython-311.pyc",
                 "perfbench/tests/__pycache__/test_run.cpython-311.pyc"):
        (change / junk).parent.mkdir(parents=True, exist_ok=True)
        (change / junk).write_text("left behind")
    assert bench_ab.main(argv) == 0
    assert len(calls) == 2
    capsys.readouterr()

    # edits of the change checkout, each to a file that sorts before the last
    # one edited, and the file the error then names
    cases = [
        (lambda: (change / "perfbench" / "tests" / "test_run.py").write_text("# edited\n"),
         "perfbench/tests/test_run.py"),
        (lambda: (change / "perfbench" / "run.py").unlink(), "perfbench/run.py"),
        (lambda: (change / "perfbench" / "extra.py").write_text(""), "perfbench/extra.py"),
        (lambda: (change / "BENCHMARK.json").write_text("{}"), "BENCHMARK.json"),
    ]
    for edit, name in cases:
        edit()
        calls.clear()
        assert bench_ab.main(argv) == 2
        assert calls == []
        assert capsys.readouterr().err == (
            f"error: the checkouts differ in {name}; both must run the same benchmark\n")


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_fewer_than_one_pair_is_refused_before_any_run(tmp_path, monkeypatch, capsys, pairs):
    # no pairs left `quartiles` an empty sample, and it raised StatisticsError
    parent, change = checkouts(tmp_path)
    monkeypatch.setattr(bench_ab, "run_once", lambda *args: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        bench_ab.main([str(parent), str(change), "--workload", "flat", "-n", pairs])
    assert exc.value.code == 2
    assert f"needs at least 1 pair, got {pairs}" in capsys.readouterr().err
