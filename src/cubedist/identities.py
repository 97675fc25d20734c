"""Exact determinant and inverse identities for cube point sets.

For a set {x_0, ..., x_m} with Gram matrix G = B B^T of its tail
translated by x_0 (`PointSet.tail`) and u = diag G, the distance matrix
D satisfies

    det(D) = (-1)^(m-1) 2^(m-1) det [[0, u^T], [u, G]]
    det(D) = (-1)^m 2^(m-1) det(G) <G^{-1}u, u>      (independent tail)
    det [[0, 1^T], [1, D]] = (-1)^(m-1) 2^m det(G)
    <D^{-1}1, 1> = 2 / <G^{-1}u, u>                  (affinely independent)

and det(D) = 0 exactly when the tail is linearly dependent, in which
case an integer kernel vector of D can be written down from the
dependence.

One exact route per answer: the per-set invariants read det G,
<G^{-1}u, u> and the dependence from one Gram-kernel pass (the set's
cached `kernel`, through `kernel_quad`). The second routes (pivoting
determinants, `gram_solve`'s pivoting solve) stay separate so that the
sweeps compare two computations of each identity, and learn dependence
from their own elimination. `verify` runs them on independent sets only:
a dependent set's zeros are certified there by `kernel_witness`, and the
eliminations here are the tests' oracle for that certificate.
`full_report` (`report`) eliminates nothing beyond the kernel pass. Every
function reads the set's cached distance rows, Gram rows and kernel
(`PointSet.d_rows`, `.gram`, `.kernel`), so a set's matrices are built
once however many identities are checked on it; the eliminations read
the cached rows in place. Nothing here runs a rank test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional

from . import cube
from .cube import PointSet
from .errors import DependenceError, IndependenceError, InvariantError, SingularMatrixError
from .ratlinalg import det_int, det_solve_int


def kernel_quad(s: PointSet) -> tuple[int, Optional[Fraction]]:
    """(det G, <G^{-1}u, u>) from the set's Gram-kernel pass, the
    quadratic form as -det [[G, u], [u^T, 0]] / det G; a dependent tail
    gives (0, None)."""
    _, _, pivots, _, corner, dependent = s.kernel
    if dependent is not None:
        return 0, None
    return pivots[-1], Fraction(-corner, pivots[-1])


def det_distance_matrix(s: PointSet) -> Fraction:
    """det(D) by direct fraction-free elimination."""
    return Fraction(det_int(s.d_rows))


def det_via_bordered_gram(s: PointSet) -> Fraction:
    """det(D) from the bordered Gram matrix [[0, u^T], [u, G]].

    Exact for every set, dependent or not, since both sides vanish
    together.
    """
    m = s.m
    g, u = s.gram
    val = det_int([[0, *u]] + [[ui, *row] for ui, row in zip(u, g)])
    return Fraction((-1) ** (m - 1) * (1 << (m - 1)) * val)


def det_via_gram_quad(s: PointSet) -> Fraction:
    """det(D) as (-1)^m 2^(m-1) det(G) <G^{-1}u, u>.

    Needs a linearly independent tail (DependenceError otherwise); both
    factors come from `gram_solve`, a different elimination route from
    `det_via_bordered_gram`.
    """
    return det_from_gram_quad(s.m, *gram_solve(s))


def gram_solve(s: PointSet) -> tuple[Fraction, Fraction]:
    """(det G, <G^{-1}u, u>) along the pivoting route: one `det_solve_int`
    pass over [G | u] gives det G and y = det G * G^{-1}u, so the form is
    <y, u> / det G. Raises DependenceError when det G is 0."""
    g, u = s.gram
    det_g, y = det_solve_int([[*row, ui] for row, ui in zip(g, u)])
    if det_g == 0:
        raise DependenceError("tail points are linearly dependent; det(D) = 0 by the kernel route")
    return Fraction(det_g), Fraction(sum(yi * ui for (yi,), ui in zip(y, u)), det_g)


def det_from_gram_quad(m: int, det_g: Fraction, quad: Fraction) -> Fraction:
    """det(D) = (-1)^m 2^(m-1) det(G) <G^{-1}u, u> for an m-point tail."""
    return Fraction((-1) ** m * (1 << (m - 1))) * det_g * quad


def gram_quad(s: PointSet) -> Fraction:
    """Exact <G^{-1}u, u> from the Gram kernel; positive by positive
    definiteness of G. Equals n whenever m = n."""
    _, quad = kernel_quad(s)
    if quad is None:
        raise DependenceError("Gram matrix is singular for a dependent tail")
    return quad


def kernel_witness(s: PointSet) -> tuple[int, ...]:
    """A nonzero integer vector c with D c = 0 and sum(c) = 0.

    Built from the first tail point that is a rational combination of
    its predecessors: the combination coefficients fill c_1..c_m (zero
    beyond the points involved) and c_0 = -(c_1 + ... + c_m). Entries
    are scaled to coprime integers with the first nonzero tail entry
    positive.

    The coefficients solve the Gram kernel's triangular system for the
    independent prefix, U y = det(G_k) h with U[i][t] = hists[t][i] and
    U[i][i] = pivots[i], h the dependent point's column history; y is
    det(G_k) times the coefficients, an integer vector by Cramer's rule,
    so the back-substitution divides exactly.
    """
    _, hists, pivots, _, _, dependent = s.kernel
    if dependent is None:
        raise IndependenceError("tail points are linearly independent; D has trivial kernel")
    h = dependent[1]
    k = len(pivots)
    scale = pivots[-1]
    y = [0] * k
    for i in range(k - 1, -1, -1):
        y[i] = (scale * h[i] - sum(hists[t][i] * y[t] for t in range(i + 1, k))) // pivots[i]
    ints = [-v for v in y] + [scale] + [0] * (s.m - k - 1)
    g = gcd(*ints)
    ints = [v // g for v in ints]
    if next(v for v in ints if v) < 0:
        ints = [-v for v in ints]
    return (-sum(ints), *ints)


def bordered_distance_det(s: PointSet) -> Fraction:
    """det [[0, 1^T], [1, D]], computed both by direct elimination and
    as (-1)^(m-1) 2^m det(G), det(G) from the Gram kernel; the two must
    coincide."""
    m = s.m
    det_g, _ = kernel_quad(s)
    direct = det_int(cube.bordered_rows(s.d_rows))
    formula = (-1) ** (m - 1) * (1 << m) * det_g
    if direct != formula:
        raise InvariantError(f"bordered distance det {direct} != formula {formula}")
    return Fraction(direct)


def dinv_ones(s: PointSet) -> Fraction:
    """Exact <D^{-1}1, 1> = 2 / <G^{-1}u, u>, positive for every
    affinely independent set."""
    _, quad = kernel_quad(s)
    if quad is None:
        raise SingularMatrixError(
            "distance matrix is singular for an affinely dependent set", det=Fraction(0)
        )
    return 2 / quad


@dataclass(frozen=True)
class DetReport:
    """Bundle of the exact invariants of one point set.

    `gram_quad` is None when the Gram matrix is singular; `dinv_ones` is
    None when D is singular (both happen exactly when the set is
    affinely dependent). `vol_sq` is det(G), the squared volume of the
    parallelepiped spanned by the translated tail.
    """

    det_D: Fraction
    det_G: Fraction
    vol_sq: Fraction
    affinely_independent: bool
    gram_quad: Optional[Fraction]
    dinv_ones: Optional[Fraction]

    def to_json_dict(self) -> dict:
        out = {
            "det_D": str(self.det_D),
            "det_G": str(self.det_G),
            "vol_sq": str(self.vol_sq),
            "affinely_independent": self.affinely_independent,
        }
        if self.gram_quad is not None:
            out["gram_quad"] = str(self.gram_quad)
        if self.dinv_ones is not None:
            out["dinv_ones"] = str(self.dinv_ones)
        return out


def full_report(s: PointSet) -> DetReport:
    """Compute every invariant; fields that require invertibility are
    absent (None) rather than zeroed. Every field comes from the one
    Gram-kernel pass, and `report` eliminates nothing beyond it: det(D)
    is 0 for a dependent set, else `det_from_gram_quad` (which `verify`
    compares with elimination), so D is never built."""
    det_g, gq = kernel_quad(s)
    independent = gq is not None
    return DetReport(
        det_D=det_from_gram_quad(s.m, det_g, gq) if independent else Fraction(0),
        det_G=Fraction(det_g),
        vol_sq=Fraction(det_g),
        affinely_independent=independent,
        gram_quad=gq,
        dinv_ones=2 / gq if independent else None,
    )
