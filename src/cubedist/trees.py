"""Unweighted trees: graph metric, cube embedding, exact inverse entries.

A tree on n+1 vertices (n >= 2) embeds isometrically into the n-cube by
giving each edge its own coordinate and mapping each vertex to the
indicator of the edges on its path from vertex 0. Its distance matrix
has determinant (-1)^n n 2^(n-1) regardless of shape (Graham-Pollak),
and the inverse has closed-form entries in the vertex degrees and
adjacency (Graham-Lovasz):

    d*_ii = (2 - deg_i)^2 / (2n) - deg_i / 2
    d*_ij = (2 - deg_i)(2 - deg_j) / (2n) + adj_ij / 2

whose total sum is 2/n. Labeled trees are enumerated exhaustively
through Prufer sequences ((n+1)^(n-1) trees on n+1 vertices).

The integer rows the checks read are built in O(k^2) Python-level steps
on k = n + 1 vertices: the distance rows and the cube embedding from one
BFS from vertex 0 (`tree_rows_and_bits`, which `tree_distance_rows` and
`embed_bits` wrap), and 2n D^{-1} from the formula above as an outer
product corrected on the diagonal and the edges (`scaled_inverse_rows`).
Only `graham_lovasz_inverse` and `tree_dinv_ones` return `Fraction`s.

A decoded Prufer sequence is a tree by construction, so `prufer_to_tree`
builds its `UnweightedTree` without re-validating it; every other way in
(`UnweightedTree(...)`, `from_edges`, `parse_tree`) validates in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Sequence

from .cube import MAX_DIM, PointSet
from .errors import InvalidTreeError, ParseError
from .ratlinalg import RationalMatrix, det_int

MIN_VERTICES = 3  # n >= 2, so the smallest accepted tree has 3 vertices
MAX_VERTICES = MAX_DIM + 1


@dataclass(frozen=True)
class UnweightedTree:
    """Connected acyclic graph on vertex_count vertices, 0-indexed."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        k = self.vertex_count
        if not MIN_VERTICES <= k <= MAX_VERTICES:
            raise InvalidTreeError(f"vertex count {k} outside [{MIN_VERTICES}, {MAX_VERTICES}]")
        if len(self.edges) != k - 1:
            raise InvalidTreeError(f"a tree on {k} vertices has {k - 1} edges, got {len(self.edges)}")
        parent = list(range(k))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        seen = set()
        for u, v in self.edges:
            if not (0 <= u < k and 0 <= v < k):
                raise InvalidTreeError(f"edge ({u}, {v}) outside vertex range 0..{k - 1}")
            if u == v:
                raise InvalidTreeError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InvalidTreeError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            ru, rv = find(u), find(v)
            if ru == rv:
                raise InvalidTreeError(f"edge ({u}, {v}) closes a cycle")
            parent[ru] = rv
        # k-1 edges and no cycle force connectivity

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[Sequence[int]]) -> "UnweightedTree":
        norm = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        return cls(vertex_count, norm)

    @classmethod
    def _trusted(cls, vertex_count: int, edges: tuple[tuple[int, int], ...]) -> "UnweightedTree":
        """A tree from edges already known to form one, sorted and
        normalized as `from_edges` leaves them; skips `__post_init__`."""
        t = object.__new__(cls)
        object.__setattr__(t, "vertex_count", vertex_count)
        object.__setattr__(t, "edges", edges)
        return t

    @property
    def n(self) -> int:
        """Number of edges; the cube dimension the tree embeds into."""
        return self.vertex_count - 1

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)


def tree_rows_and_bits(t: UnweightedTree) -> tuple[list[list[int]], list[int]]:
    """All-pairs path lengths as int rows, and the cube images of the
    vertices, from one BFS from vertex 0.

    A vertex v reached from its parent p lies outside the subtree of
    every vertex placed before it, so its path to each of them runs
    through p: dist(v, x) = dist(p, x) + 1. Each row and column is filled
    as its vertex is placed, k(k-1)/2 pairs in all. Coordinate j of the
    cube is edge j in sorted order, whatever order `t.edges` holds, and v
    maps to the indicator of its root path: bits[v] = bits[p] ^ (1 << j)
    for the edge j joining p and v.
    """
    k = t.vertex_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for j, (u, v) in enumerate(sorted((u, v) if u < v else (v, u) for u, v in t.edges)):
        adj[u].append((v, 1 << j))
        adj[v].append((u, 1 << j))
    rows = [[0] * k for _ in range(k)]
    bits = [0] * k
    placed = [0]
    seen = [False] * k
    seen[0] = True
    for p in placed:  # grows while it is walked: BFS order
        row_p = rows[p]
        bits_p = bits[p]
        for v, bit in adj[p]:
            if seen[v]:
                continue
            seen[v] = True
            bits[v] = bits_p ^ bit
            row_v = rows[v]
            for x in placed:
                d = row_p[x] + 1
                row_v[x] = d
                rows[x][v] = d
            placed.append(v)
    return rows, bits


def tree_distance_rows(t: UnweightedTree) -> list[list[int]]:
    """All-pairs path lengths as int rows (`tree_rows_and_bits`)."""
    return tree_rows_and_bits(t)[0]


def embed_bits(t: UnweightedTree) -> list[int]:
    """Cube images of the vertices: coordinate j is edge j (edges in
    sorted order), vertex v maps to the indicator of its root path
    (`tree_rows_and_bits`)."""
    return tree_rows_and_bits(t)[1]


def embed_tree(t: UnweightedTree) -> PointSet:
    """Isometric image of the tree in H_n, with vertex 0 at the origin.

    Distances agree because the cube distance of two images is the size
    of the symmetric difference of their root paths, which is the length
    of the path joining the two vertices.
    """
    return PointSet.from_bits(t.n, embed_bits(t))


def graham_pollak_det(t: UnweightedTree) -> int:
    """det(D) = (-1)^n n 2^(n-1), independent of the tree's shape."""
    n = t.n
    return (-1) ** n * n * (1 << (n - 1))


def scaled_inverse_rows(t: UnweightedTree) -> list[list[int]]:
    """2n * D^{-1} as integer rows, from the degree/adjacency formula:
    the outer product v v^T with v = 2 - deg, then -n deg_i on the
    diagonal and +n on each edge."""
    n = t.n
    deg = t.degrees()
    v = [2 - d for d in deg]
    out = [[a * b for b in v] for a in v]
    for i, d in enumerate(deg):
        out[i][i] -= n * d
    for a, b in t.edges:
        out[a][b] += n
        out[b][a] += n
    return out


def graham_lovasz_inverse(t: UnweightedTree) -> RationalMatrix:
    """D^{-1} from the closed form; entries have denominator dividing 2n."""
    scale = Fraction(1, 2 * t.n)
    return RationalMatrix.from_rows([[scale * v for v in row] for row in scaled_inverse_rows(t)])


def tree_dinv_ones(t: UnweightedTree) -> Fraction:
    """<D^{-1}1, 1>, the entry sum of the closed-form inverse: 2/n for
    every tree on n+1 vertices, since the sum telescopes: the degree
    sum of a tree is 2n, so sum_ij (2-deg_i)(2-deg_j) = (2(n+1)-2n)^2 = 4
    and the adjacency and degree halves cancel.
    """
    return Fraction(sum(map(sum, scaled_inverse_rows(t))), 2 * t.n)


def tree_det_direct(t: UnweightedTree) -> int:
    """det(D) by direct elimination, for cross-checks against the
    closed form."""
    return det_int(tree_distance_rows(t))


def prufer_to_tree(seq: Sequence[int], vertex_count: int) -> UnweightedTree:
    """Decode a Prufer sequence (length vertex_count - 2) to its tree."""
    k = vertex_count
    if not MIN_VERTICES <= k <= MAX_VERTICES:
        raise InvalidTreeError(f"vertex count {k} outside [{MIN_VERTICES}, {MAX_VERTICES}]")
    if len(seq) != k - 2:
        raise InvalidTreeError(f"sequence length {len(seq)} does not match {k} vertices")
    if any(not 0 <= v < k for v in seq):
        raise InvalidTreeError("sequence value outside vertex range")
    degree = [1] * k
    for v in seq:
        degree[v] += 1
    edges = []
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, v) if leaf < v else (v, leaf))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    last = [i for i, d in enumerate(degree) if d == 1]
    edges.append((last[0], last[1]))
    edges.sort()
    # each edge joins a leaf, never seen again, to a vertex still present,
    # so the k - 1 edges close no cycle: a tree, which `__post_init__`
    # need not re-validate
    return UnweightedTree._trusted(k, tuple(edges))


def enumerate_labeled_trees(vertex_count: int) -> Iterator[UnweightedTree]:
    """All labeled trees on vertex_count vertices, one per Prufer
    sequence (vertex_count^(vertex_count-2) trees)."""
    k = vertex_count
    if not MIN_VERTICES <= k <= MAX_VERTICES:
        raise InvalidTreeError(f"vertex count {k} outside [{MIN_VERTICES}, {MAX_VERTICES}]")
    for seq in product(range(k), repeat=k - 2):
        yield prufer_to_tree(seq, k)


def parse_tree(text: str) -> UnweightedTree:
    """Parse the tree text format: vertex count, then one 'u v' edge per
    line (0-indexed)."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing vertex-count header", line=1)
    try:
        k = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"vertex count must be an integer, got {lines[0]!r}", line=1) from None
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"edge line must be 'u v', got {ln!r}", line=i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"edge endpoints must be integers, got {ln!r}", line=i) from None
        edges.append((u, v))
    return UnweightedTree.from_edges(k, edges)


def parse_tree_file(path) -> UnweightedTree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree(fh.read())
