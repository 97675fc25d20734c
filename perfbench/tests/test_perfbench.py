"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/tests -q

They run the real command, so they take a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import statistics
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402

WORKLOADS = ("search", "identities", "trees", "negtype")
EXACT_SUFFIXES = (".calls", ".int_fallback_ratio", ".independent_ratio", ".k_mean", ".per_set")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload_name: str, seed: int, trace: int, seconds: float = 1, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload_name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    first = result_of(bench(name, 5, 1))
    second = result_of(bench(name, 5, 1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in spec()["per_layer"]}
    exact = [k for k in first["metrics"] if k.endswith(EXACT_SUFFIXES)]
    assert len(exact) == len(tracer.SPAN_NAMES) + 4
    for key in exact:
        assert first["metrics"][key] == second["metrics"][key], key


@pytest.mark.parametrize("name", WORKLOADS)
def test_second_seed_runs_clean(name):
    result = result_of(bench(name, 11, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("trees", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_pool_never_exceeds_cpus():
    assert 1 <= workload.worker_count() <= (os.cpu_count() or 1)


def test_prufer_oracle_inverts_decoder():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from cubedist import trees

    for k, seq in inputs.small_tree_codes()[:2000]:
        assert inputs.prufer_code(k, trees.prufer_to_tree(seq, k).edges) == seq


def test_gates_reject_wrong_outputs():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from cubedist import trees, verify

    ref = inputs.load_reference()
    ids = inputs.IdentityStream(1).attach(ref)
    n, tail, indep = ids[0]
    report = verify.SweepReport("t")
    verify.check_point_set(tail, n, report)
    assert ids.check((n, tail, indep), report)
    assert not ids.check((n, tail, not indep), report)
    report.counter("affine_criterion").failed = 1
    assert not ids.check((n, tail, indep), report)

    ts = inputs.TreeStream(1).attach(ref)
    k, seq, deep = ts[3]
    t = trees.prufer_to_tree(seq, k)
    report = verify.SweepReport("t")
    verify.check_tree(t, report, deep=deep)
    assert ts.check((k, seq, deep), (t, report))
    other = trees.prufer_to_tree(tuple((v + 1) % k for v in seq), k)
    assert not ts.check((k, seq, deep), (other, report))


def test_streams_are_seeded():
    ref = inputs.load_reference()
    for cls in inputs.STREAMS.values():
        a, b, c = (cls(s).attach(ref) for s in (3, 3, 4))
        first = [a[i] for i in range(50)]
        assert first == [b[i] for i in range(50)]
        assert first != [c[i] for i in range(50)]


def _extra_cost() -> int:
    """Fixed extra work per call, about as long as the call itself: builds
    and drops objects the garbage collector tracks, as the program does."""
    rows = [(i, [i, i + 1]) for i in range(1000)]
    return sum(len(r[1]) for r in rows)


def test_calibration_keeps_a_slowdown(monkeypatch):
    """A fixed extra cost in one cubedist call moves wall_s and items_per_s
    by about the same share in reference seconds as in raw seconds, so the
    calibration does not absorb a slowdown of the program. Plain and slowed
    runs alternate, and the median share over five pairs is compared, so
    the host's drift between two runs does not decide the outcome."""
    cd = workload.import_cubedist()
    stream = inputs.TreeStream(2).attach(inputs.load_reference())
    monkeypatch.setitem(workload.JOB_ITEMS, "trees", workload.MIN_LATENCY_SAMPLES)
    decode = cd.trees.prufer_to_tree

    def slowed(seq, k):
        _extra_cost()
        return decode(seq, k)

    shares = {(section, name): [] for section in ("raw", "metrics") for name in ("wall_s", "items_per_s")}
    for _ in range(5):
        plain = workload.run_items(cd, "trees", 0.6, stream)
        monkeypatch.setattr(cd.trees, "prufer_to_tree", slowed)
        slow = workload.run_items(cd, "trees", 0.6, stream)
        monkeypatch.setattr(cd.trees, "prufer_to_tree", decode)
        assert plain["failed"] == slow["failed"] == 0
        for section, name in shares:
            a, b = plain[section][name][0], slow[section][name][0]
            shares[section, name].append(b / a - 1 if name == "wall_s" else a / b - 1)

    for name in ("wall_s", "items_per_s"):
        raw = statistics.median(shares["raw", name])
        ref = statistics.median(shares["metrics", name])
        assert raw > 0.5, (name, raw)
        assert abs(ref - raw) <= 0.25 * raw, (name, ref, raw)
