"""Tests of the benchmark itself: streams, checker, tracer and output.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import troplin  # noqa: E402
import troplin.cli  # noqa: E402,F401
from troplin.errors import OutOfDomain  # noqa: E402
from troplin.oracle import stiefel_bruteforce  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from checker import Checker  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# small requests of each workload, so the tests stay quick
SMALL = {"minors": lambda r: r.shape[1] <= 8,
         "subdivision": lambda r: r.shape == (2, 4) or r.shape == (2, 5),
         "fiber": lambda r: r.shape[1] <= 6}


def small_stream(workload, seed, k=8):
    stream = workloads.build_stream(workload, seed, 1)
    return [r for r in stream if SMALL[workload](r)][:k]


def texts(stream):
    return [(r.command, r.argv, r.text) for r in stream]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_stream_is_a_function_of_the_seed(workload):
    first = texts(workloads.build_stream(workload, 7, 1))
    assert texts(workloads.build_stream(workload, 7, 1)) == first
    assert texts(workloads.build_stream(workload, 8, 1)) != first


def test_generator_minors_match_the_oracle():
    rng = random.Random(11)
    for _ in range(60):
        d = rng.randint(1, 4)
        n = rng.randint(d, 7)
        rows = workloads.rand_matrix(rng, d, n, rng.uniform(0.0, 0.5))
        try:
            want = stiefel_bruteforce(rows).table
        except OutOfDomain:
            want = None
        assert workloads.minors_table(rows) == want


def test_checker_flags_one_corrupted_entry():
    req = next(r for r in workloads.build_stream("minors", 3, 1)
               if r.command == "stiefel" and r.outcome == "ok")
    [res], _, _ = run.execute([req])
    chk = Checker()
    assert chk.check(req, res.code, res.body) is None
    out = json.loads(res.body)
    key = next(k for k, v in sorted(out["entries"].items()) if v != "inf")
    out["entries"][key] = str(workloads.Fraction(out["entries"][key]) + 1)
    assert chk.check(req, res.code, json.dumps(out)) is not None


def test_checker_flags_a_wrong_predicate():
    req = next(r for r in small_stream("fiber", 4, 40)
               if r.command == "in-presentation-space")
    [res], _, _ = run.execute([req])
    chk = Checker()
    assert chk.check(req, res.code, res.body) is None
    flipped = json.dumps({"ok": not json.loads(res.body)["ok"]})
    assert chk.check(req, 1 - res.code, flipped) is not None


def _bindings():
    mods = {n: dict(vars(m)) for n, m in sys.modules.items()
            if n == "troplin" or n.startswith("troplin.")}
    classes = {c: dict(vars(c)) for c in (troplin.Matroid,
                                          troplin.ValuatedMatroid,
                                          troplin.WeightedDigraph)}
    return mods, classes


def test_tracer_restores_every_patched_attribute():
    mods, classes = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert troplin.presentations.solve_lp is not mods[
            "troplin.presentations"]["solve_lp"]
        assert troplin.gammoid.stiefel is not mods["troplin.gammoid"][
            "stiefel"]
        assert troplin.oracle.maximal_cells is mods["troplin.oracle"][
            "maximal_cells"]
    finally:
        tracer.restore()
    after_mods, after_classes = _bindings()
    for name, before in mods.items():
        assert all(after_mods[name][k] is v for k, v in before.items()), name
    for cls, before in classes.items():
        assert all(after_classes[cls][k] is v for k, v in before.items())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_gives_untraced_bytes_and_repeatable_counts(workload):
    stream = small_stream(workload, 5, 6)
    plain, _, _ = run.execute(stream)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            traced, _, _ = run.execute(stream, tracer)
        finally:
            tracer.restore()
        assert run.digest(traced) == run.digest(plain)
        calls, _ = tracer.summary()
        counts.append((calls, tracer.counts))
    assert counts[0] == counts[1]
    assert (counts[0][0]["linprog.solve_lp"] > 0) == (
        workload == "subdivision")


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_of_the_spec(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fiber",
         "--seed", "3", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "minors", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
