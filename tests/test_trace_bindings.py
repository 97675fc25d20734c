"""The benchmark's tracer patches names through `owner.__dict__[attr]`,
so every binding it lists must exist in the package; a renamed or
dropped one would make `perfbench/run.py --trace 1` fail with KeyError."""

import importlib.util
from pathlib import Path

import pytest

import cubedist
import cubedist.verify  # noqa: F401  (the tracer reaches verify as a package attribute)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_sites_bound(tracer):
    missing = [
        f"{owner}.{attr}"
        for owner, attr, _ in tracer._SITES
        if attr not in vars(tracer._resolve(cubedist, owner))
    ]
    assert missing == []


def test_det_int_sites_bound(tracer):
    missing = [mod for mod in tracer._DET_INT_SITES if "det_int" not in vars(getattr(cubedist, mod))]
    assert missing == []
