"""Negative-type analysis of cube point sets.

A metric space has p-negative type when the form sum d(x_i,x_j)^p t_i t_j
is <= 0 on the hyperplane sum t_i = 0; restricted to the basis
{e_i - e_0} this is negative semidefiniteness of the m x m matrix

    Q_ij = Dp[i][j] - Dp[i][0] - Dp[0][j].

The supremal exponent is the first p at which either det(D_p) or
<D_p^{-1}1, 1> vanishes; the latter is tracked through the bordered
determinant det [[0, 1^T], [1, D_p]] = -det(D_p) <D_p^{-1}1, 1>, which
avoids inverting D_p. Both functions are scanned on a grid and the
earliest sign change bisected.

Everything at p = 1 is decided in exact integer arithmetic (D_1 is
integral); for p > 1 determinants are evaluated at machine precision via
slogdet and classified as zero against a Hadamard-scaled threshold.
An affinely dependent set never reaches floating point: its distance
matrix is exactly singular, so the supremal exponent is exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import cube
from .cube import PointSet, normalize
from .errors import CapExceededError, DomainError, NotNegativeTypeError
from .ratlinalg import det_int

DEFAULT_CAP = 16.0
DEFAULT_TOL = 1e-9
DEFAULT_GRID = 0.125

ROOT_DETERMINANT = "determinant"
ROOT_BORDERED = "bordered"
ROOT_NONE_BELOW_CAP = "none-below-cap"


def dp_matrix(s: PointSet, p: float) -> np.ndarray:
    """The matrix (d(x_i, x_j)^p) at machine precision; requires p >= 1."""
    if p < 1:
        raise DomainError(f"exponent {p} below 1")
    base = np.array(cube.distance_rows(s.bits()), dtype=float)
    return np.power(base, p)


def is_p_negative_type(s: PointSet, p: float, tol: float = DEFAULT_TOL) -> bool:
    """Negative semidefiniteness of the restricted form, with a
    Frobenius-scaled eigenvalue tolerance."""
    dp = dp_matrix(s, p)
    q = dp[1:, 1:] - dp[1:, 0:1] - dp[0:1, 1:]
    q = 0.5 * (q + q.T)
    top = float(np.linalg.eigvalsh(q)[-1])
    scale = max(1.0, float(np.sqrt((q * q).sum())))
    return top <= tol * scale


def _log_hadamard(a: np.ndarray) -> float:
    norms = np.sqrt((a * a).sum(axis=1))
    if np.any(norms == 0.0):
        return -math.inf
    return float(np.log(norms).sum())


def _det_signal(a: np.ndarray, tol: float) -> tuple[int, float]:
    """Raw sign of det(a) and the log of |det| / Hadamard-bound.

    The sign is 0 only for a float-exact zero; callers decide zero
    classification from the scale-free ratio. Near a simple root the
    raw sign stays faithful far below the tol * Hadamard threshold, so
    bisection can keep narrowing inside the classified-zero band.
    """
    logh = _log_hadamard(a)
    if logh == -math.inf:
        return 0, -math.inf
    sign, logabs = np.linalg.slogdet(a)
    if sign == 0.0:
        return 0, -math.inf
    return (1 if sign > 0 else -1), logabs - logh


_SignFn = Callable[[float], tuple[int, float]]


def _residual(ratio: float) -> float:
    return math.exp(min(ratio, 0.0))


def _bisect_root(sign_at: _SignFn, lo: float, hi: float, s_lo: int, tol: float):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        s, ratio = sign_at(mid)
        if s == 0:
            return mid, (mid, mid), _residual(ratio)
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    _, ratio = sign_at(mid)
    return mid, (lo, hi), _residual(ratio)


def _first_root(sign_at: _SignFn, lo: float, cap: float, grid: float, tol: float):
    """Earliest root of sign_at on [lo, cap]: a sign change (refined by
    bisection on raw signs) or a zero-classified run the scan cannot
    cross (touch-zero or a run against an endpoint). None when the sign
    never changes below the cap."""
    log_tol = math.log(tol)
    steps = int(math.ceil((cap - lo) / grid - 1e-12))
    last_p: float | None = None
    last_s = 0
    band: tuple[float, float] | None = None
    for k in range(steps + 1):
        p = min(lo + k * grid, cap)
        s, ratio = sign_at(p)
        if s == 0 or ratio <= log_tol:
            band = (p, p) if band is None else (band[0], p)
            continue
        if last_p is None:
            if band is not None:
                # the scan started inside a zero band; earliest root there
                return band[0], band, _residual(sign_at(band[0])[1])
            last_p, last_s = p, s
            continue
        if s != last_s:
            return _bisect_root(sign_at, last_p, p, last_s, tol)
        if band is not None:
            # equal signs around a zero-classified run: touch-zero root
            mid = 0.5 * (band[0] + band[1])
            return mid, band, _residual(sign_at(mid)[1])
        last_p, last_s = p, s
    if band is not None:
        return band[0], band, _residual(sign_at(band[0])[1])
    return None


@dataclass(frozen=True)
class NegTypeReport:
    """Supremal negative type with the root that produced it.

    When root_kind is "none-below-cap" no root exists below the cap and
    `wp` is only a lower bound, never the supremum itself. `residual`
    is the scale-free magnitude of the vanishing quantity at the root:
    |det| relative to its Hadamard bound for determinant roots,
    |<D_p^{-1}1, 1>| itself for bordered roots.
    """

    wp: float
    root_kind: str
    bracket: tuple[float, float]
    residual: Optional[float]
    cap: float

    @property
    def is_lower_bound(self) -> bool:
        return self.root_kind == ROOT_NONE_BELOW_CAP

    def to_json_dict(self) -> dict:
        out = {
            "root_kind": self.root_kind,
            "bracket": [self.bracket[0], self.bracket[1]],
            "residual": self.residual,
            "cap": self.cap,
        }
        if self.is_lower_bound:
            out["wp_lower_bound"] = self.wp
        else:
            out["wp"] = self.wp
        return out


def _scan_for_roots(
    d_float: np.ndarray,
    exact_det_sign: Optional[int],
    exact_bord_sign: Optional[int],
    lo: float,
    cap: float,
    grid: float,
    tol: float,
    alpha: float = 1.0,
):
    """Earliest root of det(D_p) and of the bordered determinant over
    [lo, cap]; exponents are divided by alpha (metric-transform scans
    pass alpha = p). Exact signs, when given, anchor the endpoint lo."""
    k = d_float.shape[0]
    bord = np.zeros((k + 1, k + 1))
    bord[0, 1:] = 1.0
    bord[1:, 0] = 1.0
    bord[1:, 1:] = d_float

    def det_sign(p: float) -> tuple[int, float]:
        if exact_det_sign is not None and p == lo:
            return exact_det_sign, 0.0
        return _det_signal(np.power(d_float, p / alpha), tol)

    def bord_sign(p: float) -> tuple[int, float]:
        # ratio is log |det bordered / det D_p| = log |<D_p^{-1}1, 1>|,
        # the dimensionless quantity whose vanishing is being scanned;
        # the bordered matrix's own Hadamard bound overscales it.
        if exact_bord_sign is not None and p == lo:
            return exact_bord_sign, 0.0
        sign_b, logabs_b = np.linalg.slogdet(np.power(bord, p / alpha))
        if sign_b == 0.0:
            return 0, -math.inf
        sign_d, logabs_d = np.linalg.slogdet(np.power(d_float, p / alpha))
        if sign_d == 0.0:
            # D_p itself is float-singular here; the determinant scan
            # owns this root, so report the bordered value as nonzero
            return (1 if sign_b > 0 else -1), 0.0
        return (1 if sign_b > 0 else -1), logabs_b - logabs_d

    found = []
    hit = _first_root(det_sign, lo, cap, grid, tol)
    if hit is not None:
        found.append((hit[0], ROOT_DETERMINANT, hit[1], hit[2]))
    hit = _first_root(bord_sign, lo, cap, grid, tol)
    if hit is not None:
        found.append((hit[0], ROOT_BORDERED, hit[1], hit[2]))
    if not found:
        return None
    return min(found, key=lambda item: item[0])


def sanchez_wp(
    s: PointSet,
    cap: float = DEFAULT_CAP,
    tol: float = DEFAULT_TOL,
    grid: float = DEFAULT_GRID,
) -> NegTypeReport:
    """Supremal negative type as the first root of det(D_p) or of the
    bordered determinant on [1, cap].

    Affinely dependent sets short-circuit exactly: det(D_1) = 0, so the
    supremum is 1 with no floating-point work.
    """
    if cap < 1:
        raise DomainError(f"cap {cap} below 1")
    sn = normalize(s)
    bits = sn.bits()
    if not cube.linear_independent(sn):
        return NegTypeReport(
            wp=1.0,
            root_kind=ROOT_DETERMINANT,
            bracket=(1.0, 1.0),
            residual=0.0,
            cap=float(cap),
        )
    rows = cube.distance_rows(bits)
    exact_det = det_int([row[:] for row in rows])
    exact_bord = det_int(cube.bordered_rows(rows))
    d_float = np.array(rows, dtype=float)
    hit = _scan_for_roots(
        d_float,
        1 if exact_det > 0 else -1,
        1 if exact_bord > 0 else -1,
        1.0,
        float(cap),
        grid,
        tol,
    )
    if hit is None:
        return NegTypeReport(
            wp=float(cap),
            root_kind=ROOT_NONE_BELOW_CAP,
            bracket=(float(cap), float(cap)),
            residual=None,
            cap=float(cap),
        )
    root, kind, bracket, residual = hit
    return NegTypeReport(wp=root, root_kind=kind, bracket=bracket, residual=residual, cap=float(cap))


def strict_p_negative_type(s: PointSet, p: float, tol: float = DEFAULT_TOL) -> bool:
    """Whether p-negative type holds strictly: det(D_p) and
    <D_p^{-1}1, 1> both nonzero. Exact rational arithmetic at p = 1."""
    if not is_p_negative_type(s, p, tol):
        raise NotNegativeTypeError(f"set does not have {p}-negative type")
    sn = normalize(s)
    rows = cube.distance_rows(sn.bits())
    if p == 1:
        det1 = det_int([row[:] for row in rows])
        bord1 = det_int(cube.bordered_rows(rows))
        return det1 != 0 and bord1 != 0
    d_float = np.array(rows, dtype=float)
    bord = np.array(cube.bordered_rows(rows), dtype=float)
    log_tol = math.log(tol)
    sign_d, ratio_d = _det_signal(np.power(d_float, p), tol)
    if sign_d == 0 or ratio_d <= log_tol:
        return False
    # <D_p^{-1}1, 1> nonzero, judged by the dimensionless bordered ratio
    sign_b, logabs_b = np.linalg.slogdet(np.power(bord, p))
    if sign_b == 0.0:
        return False
    _, logabs_dp = np.linalg.slogdet(np.power(d_float, p))
    return logabs_b - logabs_dp > log_tol


@dataclass(frozen=True)
class MuruganClassification:
    """Three equivalent views of the same dichotomy; they must agree."""

    affinely_independent: bool
    strict_1_negative_type: bool
    wp_exceeds_1: bool

    @property
    def consistent(self) -> bool:
        return self.affinely_independent == self.strict_1_negative_type == self.wp_exceeds_1


def murugan_classify(
    s: PointSet,
    cap: float = DEFAULT_CAP,
    tol: float = DEFAULT_TOL,
    grid: float = DEFAULT_GRID,
) -> MuruganClassification:
    """Affine independence (exact), strict 1-negative type (exact), and
    supremal type above 1 (from the root scan; a no-root-below-cap
    outcome certifies the bound since the cap exceeds 1)."""
    report = sanchez_wp(s, cap=cap, tol=tol, grid=grid)
    return MuruganClassification(
        affinely_independent=cube.affinely_independent(s),
        strict_1_negative_type=strict_p_negative_type(s, 1.0, tol),
        wp_exceeds_1=report.wp > 1.0,
    )


def transform_scaling_check(
    s: PointSet,
    p: float,
    cap: float = DEFAULT_CAP,
    tol: float = DEFAULT_TOL,
    grid: float = DEFAULT_GRID,
) -> tuple[float, float]:
    """Supremal negative type of (X, d_p) next to p times that of
    (X, d_1); the two agree because the q-th power of the d_p metric is
    the (q/p)-th power of the original distances.

    The q-scan runs over [1, p * cap] with the grid scaled by p, so the
    resolution in q/p matches the base scan. For p = infinity the d_p
    metric is discrete and the supremum is infinite; that case is
    reported symbolically, never scanned.
    """
    if p < 1:
        raise DomainError(f"exponent {p} below 1")
    base = sanchez_wp(s, cap=cap, tol=tol, grid=grid)
    if base.is_lower_bound:
        raise CapExceededError(f"no root below cap {cap} for the base metric")
    wp1 = base.wp
    if math.isinf(p):
        return (math.inf, math.inf)
    if p == 1.0:
        return (wp1, wp1)
    sn = normalize(s)
    if not cube.linear_independent(sn):
        # dependent: D_1 is exactly singular at q = p, and no root can
        # occur earlier, so the scaled supremum is exactly p
        return (float(p), p * wp1)
    rows = cube.distance_rows(sn.bits())
    d_float = np.array(rows, dtype=float)
    hit = _scan_for_roots(d_float, None, None, 1.0, p * float(cap), p * grid, tol, alpha=p)
    if hit is None:
        raise CapExceededError(f"no root below {p * cap} for the transformed metric")
    return (hit[0], p * wp1)


def linf_supremal_negative_type(s: PointSet) -> float:
    """Under the l-infinity metric a cube subset is discrete (all
    distances 1), so every exponent works: the supremum is infinite.
    Reported symbolically; nothing is scanned."""
    return math.inf
