"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass. Expensive sweeps are module-scoped fixtures shared
between criteria.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from cubedist import identities, negtype, search, verify
from cubedist.cube import PointSet

F = Fraction

RANDOM_SWEEP_SAMPLES = 10_000
RANDOM_SWEEP_SEED = 20_240_817
PROBE_SEED = 901_733


def _announce(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def identity_reports():
    reports = {n: verify.identity_sweep_exhaustive(n) for n in (2, 3, 4)}
    for n in (5, 6):
        reports[n] = verify.identity_sweep_random(n, RANDOM_SWEEP_SAMPLES, RANDOM_SWEEP_SEED)
    return reports


@pytest.fixture(scope="module")
def tree_report():
    return verify.tree_sweep(max_vertices=8)


def _feasible_pairs():
    return [(n, m) for n in range(2, 6) for m in range(1, 6) if m <= (1 << n) - 1]


@pytest.fixture(scope="module")
def pair_results():
    return {(n, m): search.min_dinv_ones(n, m, workers=1) for n, m in _feasible_pairs()}


def test_criterion_1_h3_example():
    s = PointSet.from_coords([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)])
    det = identities.det_distance_matrix(s)
    dio = identities.dinv_ones(s)
    ok = det == -12 and dio == F(2, 3)
    _announce(1, ok, f"H_3 example: det(D) = {det} (want -12), <D^-1 1,1> = {dio} (want 2/3)")


def test_criterion_2_gram_quad_values():
    a = identities.gram_quad(PointSet.from_coords([(0, 0, 0), (1, 1, 1), (1, 1, 0)]))
    b = identities.gram_quad(PointSet.from_coords([(0, 0, 0), (1, 0, 1), (1, 1, 0)]))
    ok = a == 3 and b == F(8, 3)
    _announce(2, ok, f"<G^-1 u,u> = {a} (want 3) and {b} (want 8/3)")


def test_criterion_3_identity_suite(identity_reports):
    details = []
    ok = True
    for n, report in sorted(identity_reports.items()):
        checked = report.counters["det_via_bordered_gram"].checked
        expected = (1 << ((1 << n) - 1)) - 1 if n <= 4 else RANDOM_SWEEP_SAMPLES
        ok = ok and report.ok and checked == expected
        details.append(f"n={n}: {checked} sets, ok={report.ok}")
        for line in report.lines():
            print("   ", line)
    _announce(3, ok, "; ".join(details))


def test_criterion_4_full_dimensional_gram_quad(identity_reports):
    ok = True
    total = 0
    for report in identity_reports.values():
        c = report.counters["full_dim_gram_quad"]
        ok = ok and c.failed == 0
        total += c.checked
    ok = ok and total > 0
    _announce(4, ok, f"<G^-1 u,u> = n on every full-dimensional set seen ({total} sets)")


def test_criterion_5_tree_suite(tree_report):
    expected_trees = sum(k ** (k - 2) for k in range(3, 9))  # 280391
    counts_ok = all(
        tree_report.counters[name].checked == expected_trees
        for name in (
            "embedding_isometry",
            "tree_det_formula",
            "inverse_entries_product",
            "inverse_entry_sum",
            "embedded_affine_independent",
        )
    )
    ok = tree_report.ok and counts_ok
    for line in tree_report.lines():
        print("   ", line)
    _announce(5, ok, f"all labeled trees on 3..8 vertices ({expected_trees} trees)")


def test_criterion_6_negative_type():
    dep = PointSet.from_bits(2, [0, 1, 2, 3])
    rep_dep = negtype.sanchez_wp(dep)
    dep_ok = rep_dep.wp == 1.0 and rep_dep.residual == 0.0

    path = PointSet.from_coords([(0, 0), (1, 0), (1, 1)])
    rep_path = negtype.sanchez_wp(path)
    path_ok = abs(rep_path.wp - 2.0) <= 1e-6

    murugan_ok = True
    murugan_count = 0
    for n in (2, 3, 4):
        top = (1 << n) - 1
        for m in range(1, top + 1):
            for tail in combinations(range(1, top + 1), m):
                c = negtype.murugan_classify(PointSet.from_bits(n, (0,) + tail))
                murugan_count += 1
                if not c.consistent:
                    murugan_ok = False

    rng = random.Random(515_253)
    exponents = [1.25, 1.5, 2.0, 3.0]
    scaling_checked = 0
    scaling_ok = True
    while scaling_checked < 100:
        n = rng.choice((3, 4))
        size = rng.randint(3, min(7, 1 << n))
        s = PointSet.from_bits(n, [0] + sorted(rng.sample(range(1, 1 << n), size - 1)))
        p = exponents[scaling_checked % len(exponents)]
        try:
            got, want = negtype.transform_scaling_check(s, p)
        except negtype.CapExceededError:
            continue
        scaling_checked += 1
        if abs(got - want) > 1e-6:
            scaling_ok = False

    ok = dep_ok and path_ok and murugan_ok and scaling_ok
    _announce(
        6,
        ok,
        f"dependent wp=1 exact: {dep_ok}; path wp={rep_path.wp:.8f}: {path_ok}; "
        f"murugan agreement on {murugan_count} sets: {murugan_ok}; "
        f"scaling on {scaling_checked} seeded sets: {scaling_ok}",
    )


def test_criterion_7_conjecture_reproduction(pair_results):
    ok = True
    details = []
    for (n, m), res in sorted(pair_results.items()):
        floor = F(2, n)
        if res.violations:
            ok = False
            details.append(f"(n={n},m={m}): VIOLATIONS")
        if res.min_value is not None and res.min_value < floor:
            ok = False
            details.append(f"(n={n},m={m}): min {res.min_value} < {floor}")
        if m == n and res.min_value != floor:
            ok = False
            details.append(f"(n={n},m={m}): m=n slice min {res.min_value} != {floor}")
    probe = search.random_probe(8, 6, 10_000, seed=PROBE_SEED)
    rerun = search.random_probe(8, 6, 10_000, seed=PROBE_SEED)
    if probe.violations:
        ok = False
        details.append("probe found violations")
    if probe.to_json() != rerun.to_json():
        ok = False
        details.append("probe rerun not byte-identical")
    checked = sum(r.sets_examined for r in pair_results.values())
    _announce(
        7,
        ok,
        f"exhaustive pairs m<=5, n<=5 ({checked} sets) and 10^4-trial probe at n=8, m=6; "
        + ("no violations" if ok else "; ".join(details)),
    )


def test_criterion_8_worker_determinism(pair_results):
    ok = True
    for (n, m), res in sorted(pair_results.items()):
        redo = search.min_dinv_ones(n, m, workers=4)
        if redo.to_json() != res.to_json():
            ok = False
    _announce(8, ok, "worker counts 1 and 4 give byte-identical JSON on every pair")
