"""Seeded inputs and reference checks for the cubedist benchmark.

Point sets come from fixed pools whose expected outputs were computed once
at the reference commit and stored in reference.json (see
make_reference.py). The workload seed only chooses the order in which the
pools are visited, so any seed gives inputs that have a stored reference.
A stream builds its pools at set-up time; attach() then compares their
digests with the stored ones, so a drift in the generators cannot go
unnoticed, and loads the expected outputs. attach() is the benchmark's
own bookkeeping and runs after set-up has been timed. Trees need
no stored reference: a decoded tree must re-encode to its Prufer sequence,
so the 8-vertex sequences are drawn from the seed directly.

A stream is indexable without bound: item i wraps around its pools, so a
faster program that gets through more items sees the same mix.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from itertools import combinations, product

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

N6_POOL_SEED = 6_000_006
N6_POOL_SIZE = 4096
T8_POOL_SIZE = 32768
NEG_POOL_SEED = 4_000_005
NEG_POOL_SIZE = 8192

# identities: one random n=6 set after every nine H_4 subsets;
# trees: one random 8-vertex tree after every three trees on 3..7 vertices;
# negtype: one dependent set, then three independent ones.
ID_PERIOD = 10
TREE_PERIOD = 4
NEG_PERIOD = 4

SEARCH_N, SEARCH_M = 5, 5
PROBE_N, PROBE_M = 8, 6

_IDENTITY_ALWAYS = ("affine_criterion", "bordered_distance_det", "det_via_bordered_gram")
_IDENTITY_DEPENDENT = ("dependent_kernel",)
_IDENTITY_INDEPENDENT = ("det_via_gram_quad", "dinv_ones_consistency", "gram_quad_two_routes")
_IDENTITY_FULL_DIM = ("full_dim_det", "full_dim_gram_quad")
_TREE_BASE = (
    "embedded_affine_independent",
    "embedding_isometry",
    "inverse_entries_product",
    "inverse_entry_sum",
    "tree_det_formula",
)
_TREE_DEEP = ("embedded_dinv_value", "inverse_entries_direct")


def h4_tails() -> list[tuple[int, ...]]:
    """Tails of every normalized subset of H_4, m ascending, lex order."""
    return [t for m in range(1, 16) for t in combinations(range(1, 16), m)]


def n6_pool() -> list[tuple[int, ...]]:
    """Random n=6 tails drawn the way verify.identity_sweep_random draws."""
    rng = random.Random(N6_POOL_SEED)
    out = []
    for _ in range(N6_POOL_SIZE):
        m = rng.randint(1, 63)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(rng.randrange(1, 64))
        out.append(tuple(sorted(chosen)))
    return out


def small_tree_codes() -> list[tuple[int, tuple[int, ...]]]:
    """(vertex count, Prufer sequence) of every labeled tree on 3..7 vertices."""
    return [(k, seq) for k in range(3, 8) for seq in product(range(k), repeat=k - 2)]


def negtype_pool() -> list[tuple[int, tuple[int, ...]]]:
    """(n, points) with n in {4, 5} and 3..8 distinct points, not normalized."""
    rng = random.Random(NEG_POOL_SEED)
    out = []
    for _ in range(NEG_POOL_SIZE):
        n = rng.choice((4, 5))
        k = rng.randint(3, 8)
        out.append((n, tuple(rng.sample(range(1 << n), k))))
    return out


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def pack_bits(flags) -> str:
    value = 0
    for i, f in enumerate(flags):
        if f:
            value |= 1 << i
    return format(value, "x")


def unpack_bits(text: str, count: int) -> list[bool]:
    value = int(text, 16)
    return [bool((value >> i) & 1) for i in range(count)]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class InputDrift(RuntimeError):
    """A rebuilt pool does not match the pool the reference was made from."""


def _check(pool, ref: dict, key: str) -> None:
    if digest(pool) != ref[key]:
        raise InputDrift(f"{key}: rebuilt pool differs from the one in reference.json")


def _shuffled(rng: random.Random, count: int) -> list[int]:
    order = list(range(count))
    rng.shuffle(order)
    return order


def prufer_code(vertex_count: int, edges) -> tuple[int, ...]:
    """Prufer sequence of a labeled tree: repeatedly remove the smallest
    leaf and record its neighbour. Inverse of cubedist.trees.prufer_to_tree."""
    adj: list[set[int]] = [set() for _ in range(vertex_count)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    code = []
    for _ in range(vertex_count - 2):
        leaf = min(v for v in range(vertex_count) if len(adj[v]) == 1)
        (nb,) = adj[leaf]
        code.append(nb)
        adj[nb].discard(leaf)
        adj[leaf].clear()
    return tuple(code)


def _counters_ok(report, expected: tuple[str, ...]) -> bool:
    got = {name: (c.checked, c.failed) for name, c in report.counters.items()}
    return got == {name: (1, 0) for name in expected}


class IdentityStream:
    """verify.check_point_set inputs: H_4 subsets and random n=6 sets."""

    def __init__(self, seed: int):
        rng = random.Random(f"identities/{seed}")
        self.h4 = h4_tails()
        self.n6 = n6_pool()
        self.h4_order = _shuffled(rng, len(self.h4))
        self.n6_order = _shuffled(rng, len(self.n6))

    def attach(self, ref: dict) -> "IdentityStream":
        _check(self.h4, ref, "h4_digest")
        _check(self.n6, ref, "n6_digest")
        self.h4_indep = unpack_bits(ref["h4_independent"], len(self.h4))
        self.n6_indep = unpack_bits(ref["n6_independent"], len(self.n6))
        return self

    def __getitem__(self, i: int):
        """(n, tail, independent) of item i."""
        block, pos = divmod(i, ID_PERIOD)
        if pos == ID_PERIOD - 1:
            j = self.n6_order[block % len(self.n6)]
            return 6, self.n6[j], self.n6_indep[j]
        j = self.h4_order[(block * (ID_PERIOD - 1) + pos) % len(self.h4)]
        return 4, self.h4[j], self.h4_indep[j]

    @staticmethod
    def expected_counters(n: int, tail, independent: bool) -> tuple[str, ...]:
        if not independent:
            return _IDENTITY_ALWAYS + _IDENTITY_DEPENDENT
        full = _IDENTITY_FULL_DIM if len(tail) == n else ()
        return _IDENTITY_ALWAYS + _IDENTITY_INDEPENDENT + full

    def check(self, item, report) -> bool:
        return _counters_ok(report, self.expected_counters(*item))


class TreeStream:
    """prufer_to_tree + verify.check_tree inputs: every tree on 3..7
    vertices (deep checks up to 6) and random 8-vertex trees."""

    def __init__(self, seed: int):
        rng = random.Random(f"trees/{seed}")
        self.small = small_tree_codes()
        self.small_order = _shuffled(rng, len(self.small))
        self.t8 = [tuple(rng.randrange(8) for _ in range(6)) for _ in range(T8_POOL_SIZE)]

    def attach(self, ref: dict) -> "TreeStream":
        _check(self.small, ref, "small_trees_digest")
        return self

    def __getitem__(self, i: int):
        """(vertex count, Prufer sequence, deep) of item i."""
        block, pos = divmod(i, TREE_PERIOD)
        if pos == TREE_PERIOD - 1:
            return 8, self.t8[block % len(self.t8)], False
        k, seq = self.small[self.small_order[(block * (TREE_PERIOD - 1) + pos) % len(self.small)]]
        return k, seq, k <= 6

    def check(self, item, output) -> bool:
        k, seq, deep = item
        tree, report = output
        expected = _TREE_BASE + _TREE_DEEP if deep else _TREE_BASE
        return (
            tree.vertex_count == k
            and prufer_code(k, tree.edges) == seq
            and _counters_ok(report, expected)
        )


class NegtypeStream:
    """murugan_classify inputs: random sets in H_4 and H_5, dealt in a fixed
    pattern of one dependent set to NEG_PERIOD - 1 independent ones. A fixed share keeps every prefix's mix the same, and
    this share puts the median inside the independent sets' latencies
    instead of in the gap between the two classes."""

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = negtype_pool()

    def attach(self, ref: dict) -> "NegtypeStream":
        """Split the pool by its stored independence bits and shuffle each
        part; the deal needs the bits, so it happens here."""
        _check(self.pool, ref, "negtype_digest")
        indep = unpack_bits(ref["negtype_independent"], len(self.pool))
        rng = random.Random(f"negtype/{self.seed}")
        self.dep = [(n, pts, False) for (n, pts), f in zip(self.pool, indep) if not f]
        self.ind = [(n, pts, True) for (n, pts), f in zip(self.pool, indep) if f]
        rng.shuffle(self.dep)
        rng.shuffle(self.ind)
        return self

    def __getitem__(self, i: int):
        """(n, points, affinely independent) of item i."""
        block, pos = divmod(i, NEG_PERIOD)
        if pos == 0:
            return self.dep[block % len(self.dep)]
        return self.ind[(block * (NEG_PERIOD - 1) + pos - 1) % len(self.ind)]

    def check(self, item, classification) -> bool:
        return classification.consistent and classification.affinely_independent == item[2]


def probe_seed_base(seed: int) -> int:
    """Probe item i runs random_probe with seed probe_seed_base(seed) + i."""
    return random.Random(f"search/{seed}").randrange(1 << 40)


STREAMS = {"identities": IdentityStream, "trees": TreeStream, "negtype": NegtypeStream}
