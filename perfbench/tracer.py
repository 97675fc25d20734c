"""Span tracing of cubedist's layers, installed from outside the package.

The tracer replaces each traced function at every place the program looks
it up: module attributes reached as `module.name`, names imported with
`from .x import name`, and class attributes. A span records name, start,
end, parent span and item id into flat arrays that stay in memory until
the run writes them out. `uninstall` puts every original back.

`det_int` spans are split by matrix size (k <= 8 small, k > 8 large), and
the integer rank fallback is traced where `cube.rank_of_bits` calls it,
so the fallback share is counted where it happens.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array

import numpy as np

DET_SMALL_MAX = 8

# (module, attribute, span name); module is a name under cubedist or a
# class path inside it.
_SITES = (
    ("cube", "rank_of_bits", "cube.rank_of_bits"),
    ("cube", "gram_rows", "cube.gram_rows"),
    ("cube", "distance_rows", "cube.distance_rows"),
    ("cube", "rank_int", "ratlinalg.rank_int"),
    ("ratlinalg", "rank_int", "ratlinalg.rank_int"),
    ("ratlinalg.RationalMatrix", "inverse", "ratlinalg.RationalMatrix.inverse"),
    ("ratlinalg.RationalMatrix", "solve", "ratlinalg.RationalMatrix.solve"),
    ("identities", "det_distance_matrix", "identities.det_distance_matrix"),
    ("identities", "det_via_bordered_gram", "identities.det_via_bordered_gram"),
    ("identities", "bordered_distance_det", "identities.bordered_distance_det"),
    ("identities", "kernel_witness", "identities.kernel_witness"),
    ("identities", "gram_quad", "identities.gram_quad"),
    ("identities", "det_via_gram_quad", "identities.det_via_gram_quad"),
    ("trees", "prufer_to_tree", "trees.prufer_to_tree"),
    ("trees", "tree_distance_rows", "trees.tree_distance_rows"),
    ("trees", "embed_bits", "trees.embed_bits"),
    ("trees", "scaled_inverse_rows", "trees.scaled_inverse_rows"),
    ("trees", "graham_lovasz_inverse", "trees.graham_lovasz_inverse"),
    ("negtype", "murugan_classify", "negtype.murugan_classify"),
    ("negtype", "sanchez_wp", "negtype.sanchez_wp"),
    ("negtype", "strict_p_negative_type", "negtype.strict_p_negative_type"),
    ("negtype", "is_p_negative_type", "negtype.is_p_negative_type"),
    ("search", "min_dinv_ones", "search.min_dinv_ones"),
    ("search", "random_probe", "search.random_probe"),
    ("verify", "check_point_set", "verify.check_point_set"),
    ("verify", "check_tree", "verify.check_tree"),
)
# Modules that bind det_int by name.
_DET_INT_SITES = ("search", "identities", "verify", "trees", "negtype", "ratlinalg")

SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in _SITES]
    + ["ratlinalg.det_int.small", "ratlinalg.det_int.large", "negtype.slogdet"]
))


def _resolve(package, path: str):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    def __init__(self):
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.item_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.item = -1
        self.det_k_sum = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item_id.append(self.item)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name: str):
        name_id = self.name_ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self._stack.pop()

        return traced

    def _wrap_det_int(self, fn):
        small = self.name_ids["ratlinalg.det_int.small"]
        large = self.name_ids["ratlinalg.det_int.large"]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(rows):
            k = len(rows)
            self.det_k_sum += k
            idx = self._open(small if k <= DET_SMALL_MAX else large)
            t0 = clock()
            try:
                return fn(rows)
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self._stack.pop()

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        for owner_path, attr, name in _SITES:
            owner = _resolve(package, owner_path)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        for mod in _DET_INT_SITES:
            owner = getattr(package, mod)
            self._patch(owner, "det_int", self._wrap_det_int(owner.det_int))
        self._patch(np.linalg, "slogdet", self._wrap(np.linalg.slogdet, "negtype.slogdet"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item_id, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def per_name(self) -> dict[str, tuple[int, float, float]]:
        """span name -> (calls, self seconds, inclusive seconds).

        Self time is a span's duration minus the durations of its direct
        children.
        """
        a = self.arrays()
        count = len(SPAN_NAMES)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        calls = np.bincount(a["name"], minlength=count)
        selfs = np.bincount(a["name"], weights=self_time, minlength=count)
        incl = np.bincount(a["name"], weights=dur, minlength=count)
        return {
            name: (int(calls[i]), float(selfs[i]), float(incl[i]))
            for i, name in enumerate(SPAN_NAMES)
        }

    def count_under(self, parent_name: str, child_name: str) -> int:
        """Spans named child_name whose direct parent is named parent_name."""
        a = self.arrays()
        child = a["name"] == self.name_ids[child_name]
        parents = a["parent"][child]
        parents = parents[parents >= 0]
        return int((a["name"][parents] == self.name_ids[parent_name]).sum())

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(json.dumps(SPAN_NAMES)), **self.arrays())
