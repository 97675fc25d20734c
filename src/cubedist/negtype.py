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

The scan works in stacked batches, because a single slogdet of a matrix
this small costs mostly call overhead. Grid points are evaluated
_GRID_CHUNK at a time with one np.power of the bordered matrix and one
np.linalg.slogdet per matrix shape. Before each block of _BISECT_STEPS
bisection steps, every midpoint the loop could visit next is computed
with the loop's own arithmetic and evaluated in one batch; the
unchanged bisection then walks through those values, so it takes the
same path. The walk reads only signs, so a bordered bisection batch
skips D_p. D_p is the raised bordered matrix's block, and one record of
its slogdet and row norms per p serves both scans, so each D_p is
factorised once and the determinant scan reuses the bordered scan's.
The bordered scan runs first; the determinant scan then stops as soon
as its grid walk or its bisection is past the bordered root with no
zero band open, since any root it could still find is later and so
cannot win (a tie goes to the determinant root, which that scan still
finds). Every result equals the scalar one-matrix-per-call scan's
exactly.

Everything at p = 1 is decided in exact integer arithmetic (D_1 is
integral); for p > 1 determinants are evaluated at machine precision via
slogdet and classified as zero against a Hadamard-scaled threshold.
Every cube subset has 1-negative type (Q = -2G at p = 1, G = B B^T), so
`is_p_negative_type` at p = 1 is True with no float work, and
`strict_p_negative_type` answers from `det_int` alone. `sanchez_wp`
takes the p = 1 anchors from the Gram kernel (`PointSet.kernel`): a
zero pivot means the set is affinely dependent, D_1 is exactly singular
and the supremum is exactly 1; otherwise det G > 0 and the corner
-det G <G^{-1}u, u> < 0 give sign det(D) = (-1)^m and sign
det [[0, 1^T], [1, D]] = (-1)^(m-1). A pair at distance d has no root
at any p (det D_p = -d^(2p), bordered determinant 2 d^p), so no scan.
So `murugan_classify`'s three views are three exact routes, and only the
scan of an independent set of three or more points uses floats; they
share one tuple of distance rows per set (`PointSet.d_rows`, cached with
its kernel). numpy is imported where a float matrix is built
(`dp_matrix`, `is_p_negative_type` past p = 1, `_PowerSignals`): this
module's import, every p = 1 answer, dependent sets and pairs load none.

A top exponent p (a scan's cap, p of `dp_matrix`) with
2 p log2(d_max) + 2 log2(2m) >= 1023 is refused (DomainError) before any
float is built: the largest sum of squares, sum Q_ij^2 (m^2 entries of up
to 2 d_max^p), would overflow float64, and NaN signals or an infinite
scale give wrong answers. Dependent sets and pairs short-circuit the
scans first. `murugan_classify` takes only the set and never refuses
one: only an independent set (2 <= m <= n <= 64) reaches the check,
which the default cap passes (2 * 16 log2(64) + 2 log2(128) = 206), and
it scans 121 grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from . import cube
from .cube import PointSet
from .errors import BudgetExceededError, CapExceededError, DomainError, NotNegativeTypeError
from .ratlinalg import det_int

# The root scan's default cap, tolerance and grid step.
DEFAULT_CAP = 16.0
DEFAULT_TOL = 1e-9
DEFAULT_GRID = 0.125

# Larger scans are refused, not run: the memo keeps every exponent (at the
# limit a 2-point set takes about 1 s and 60 MB, CPython 3.11, one core).
MAX_GRID_POINTS = 100_000

ROOT_DETERMINANT = "determinant"
ROOT_BORDERED = "bordered"
ROOT_NONE_BELOW_CAP = "none-below-cap"


def _check_exponent(s: PointSet, top: float) -> None:
    """Refuse a top exponent whose D_p would overflow (module docstring)."""
    d_max = max(map(max, s.d_rows))
    if 2 * top * math.log2(d_max) + 2 * math.log2(2 * s.m) >= 1023:
        raise DomainError(f"exponent {top} overflows float64 for distances up to {d_max}")


def dp_matrix(s: PointSet, p: float):
    """The matrix (d(x_i, x_j)^p) at machine precision, a numpy array;
    requires finite p >= 1 below the overflow limit."""
    # NaN and the infinities would reach the eigenvalue solver and fail there
    if not (math.isfinite(p) and p >= 1):
        raise DomainError(f"exponent {p} is not finite and at least 1")
    _check_exponent(s, p)
    import numpy as np
    return np.power(np.array(s.d_rows, dtype=float), p)


def _check_tol(tol: float) -> None:
    # 0 < tol < 1 is false for NaN and the infinities
    if not 0 < tol < 1:
        raise DomainError(f"tolerance needs 0 < tol < 1; got tol={tol}")


def is_p_negative_type(s: PointSet, p: float, tol: float = DEFAULT_TOL) -> bool:
    """Negative semidefiniteness of the restricted form, with a
    Frobenius-scaled eigenvalue tolerance; True at p = 1, where the form
    is -2G. Raises DomainError unless 0 < tol < 1."""
    _check_tol(tol)
    if p == 1:
        return True
    import numpy as np
    dp = dp_matrix(s, p)
    q = dp[1:, 1:] - dp[1:, 0:1] - dp[0:1, 1:]
    q = 0.5 * (q + q.T)
    top = float(np.linalg.eigvalsh(q)[-1])
    scale = max(1.0, float(np.sqrt((q * q).sum())))
    return top <= tol * scale


# Exponents per stacked batch: grid points evaluated together, and the
# bisection steps whose possible midpoints are evaluated ahead at once.
_GRID_CHUNK = 8
_BISECT_STEPS = 3

_Signal = tuple[int, Optional[float]]
# A batch signal maps exponents to (raw sign, log ratio), one per
# exponent. With ratios=False it may leave the ratio of a nonzero sign
# as None: the bisection walk reads ratios only at zero signs and at its
# last midpoint, which it asks for with ratios.
_BatchFn = Callable[..., list[_Signal]]


class _PowerSignals:
    """Signals of det(D_p) and of the bordered determinant at exponents
    p (the matrices are raised to p / alpha), evaluated in stacked
    batches and derived when read from two records memoised by p.

    A batch raises the bordered matrix once; D_p is its lower-right
    block, the same floats. The bordered record is its (sign, log |det|)
    and the D_p record is (sign, log |det|, log Hadamard bound), so each
    D_p is factorised once for both signals, and the determinant scan
    reads the grid records the bordered scan made. A bordered batch
    asked for signs only (ratios=False) skips D_p: the sign of the
    bordered determinant alone is the bordered signal's sign.

    The determinant signal is the raw sign of det(D_p) and the log of
    |det| over its Hadamard bound, which is positive: no row of D_p is
    zero, as its off-diagonal entries are d^(p/alpha) >= 1. The sign is
    0 only for a float-exact zero. Callers decide zero classification
    from the scale-free ratio: near a simple root the raw sign stays
    faithful far below the tol * Hadamard threshold, so bisection can
    keep narrowing inside the classified-zero band. The bordered
    signal's ratio is log |det bordered / det D_p| = log |<D_p^{-1}1, 1>|,
    the dimensionless quantity whose vanishing is scanned (the bordered
    matrix's own Hadamard bound overscales it).

    `anchor` = (lo, det sign, bordered sign) fixes both signals at lo to
    exact signs with ratio 0, so no batch ever evaluates lo.
    """

    def __init__(self, d_rows, alpha: float = 1.0, anchor=None):
        import numpy as np
        k = len(d_rows)
        bord = np.zeros((k + 1, k + 1))
        bord[0, 1:] = 1.0
        bord[1:, 0] = 1.0
        bord[1:, 1:] = d_rows
        self._bord = bord
        self._alpha = alpha
        # p -> (sign, log|det|, log Hadamard bound) of D_p
        self._dp: dict[float, tuple[float, float, float]] = {}
        # p -> (sign, log|det|) of the bordered matrix
        self._full: dict[float, tuple[float, float]] = {}
        if anchor is not None:
            lo, det_sign, bord_sign = anchor
            self._dp[lo] = (det_sign, 0.0, 0.0)
            self._full[lo] = (bord_sign, 0.0)

    def _raise(self, ps: list[float]):
        import numpy as np
        return np.power(self._bord, (np.array(ps) / self._alpha)[:, None, None])

    def _factorise(self, ps: list[float], full=None) -> None:
        """Record D_p for every p in ps, from the raised bordered
        matrices `full` (raised here when not given)."""
        if not ps:
            return
        import numpy as np
        dp = (self._raise(ps) if full is None else full)[:, 1:, 1:]
        sign, logabs = np.linalg.slogdet(dp)
        logh = np.log(np.sqrt((dp * dp).sum(axis=2))).sum(axis=1).tolist()
        self._dp.update(zip(ps, zip(sign.tolist(), logabs.tolist(), logh)))

    def det(self, ps: list[float], ratios: bool = True) -> list[_Signal]:
        # the factorisation that gives the sign gives the ratio too, so
        # determinant signals always carry it, whatever `ratios` asks
        self._factorise([p for p in ps if p not in self._dp])
        out = []
        for p in ps:
            sd, ld, lh = self._dp[p]
            out.append((0, -math.inf) if sd == 0.0 else ((1 if sd > 0 else -1), ld - lh))
        return out

    def bordered(self, ps: list[float], ratios: bool = True) -> list[_Signal]:
        new = [p for p in ps if p not in self._full]
        if new:
            import numpy as np
            full = self._raise(new)
            sign, logabs = np.linalg.slogdet(full)
            self._full.update(zip(new, zip(sign.tolist(), logabs.tolist())))
            if ratios:
                self._factorise(new, full)
        if ratios:
            self._factorise([p for p in ps if p not in self._dp])
        out = []
        for p in ps:
            sb, lb = self._full[p]
            dp = self._dp.get(p)
            if sb == 0.0:
                out.append((0, -math.inf))
            elif dp is None or dp[0] == 0.0:
                # signs only; or D_p itself is float-singular here, and
                # the determinant scan owns this root, so the bordered
                # value reads as nonzero
                out.append(((1 if sb > 0 else -1), None if dp is None else 0.0))
            else:
                out.append(((1 if sb > 0 else -1), lb - dp[1]))
        return out


def _residual(ratio: float) -> float:
    return math.exp(min(ratio, 0.0))


def _prefetch(signal: _BatchFn, known: dict, lo: float, hi: float, tol: float) -> None:
    """Evaluate, in one batch, the midpoint of every interval that the
    bisection loop can reach from (lo, hi) within _BISECT_STEPS steps,
    computed with the loop's own arithmetic and stopping rules."""
    ps = []
    level = [(lo, hi)]
    for _ in range(_BISECT_STEPS):
        nxt = []
        for a, b in level:
            mid = 0.5 * (a + b)
            ps.append(mid)
            if b - a > tol and a < mid < b:
                nxt += ((a, mid), (mid, b))
        level = nxt
    known.update(zip(ps, signal(ps, ratios=False)))


def _bisect_root(
    signal: _BatchFn, lo: float, hi: float, s_lo: int, tol: float, stop: Optional[float] = None
):
    """Bisection on raw signs from the bracket (lo, hi); None once lo has
    passed `stop`, since the root it would return is at least lo."""
    known: dict[float, _Signal] = {}
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid not in known:
            _prefetch(signal, known, lo, hi, tol)
        s, ratio = known[mid]
        if s == 0:
            return mid, (mid, mid), _residual(ratio)
        if s == s_lo:
            lo = mid
            if stop is not None and lo > stop:
                return None
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return mid, (lo, hi), _residual(signal([mid])[0][1])


def _first_root(
    signal: _BatchFn,
    lo: float,
    cap: float,
    grid: float,
    tol: float,
    stop: Optional[float] = None,
):
    """Earliest root of the signal on [lo, cap]: a sign change (refined
    by bisection on raw signs) or a zero-classified run the scan cannot
    cross (touch-zero or a run against an endpoint). None when the sign
    never changes below the cap, and also, when `stop` is given, once
    the scan or its bisection has passed `stop` with no zero run open:
    any root it could still find lies strictly above `stop`. Grid points
    are evaluated _GRID_CHUNK at a time."""
    log_tol = math.log(tol)
    steps = int(math.ceil((cap - lo) / grid - 1e-12))
    last_p: float | None = None
    last_s = 0
    band: tuple[float, float] | None = None
    band_ratio = 0.0
    for start in range(0, steps + 1, _GRID_CHUNK):
        ps = [min(lo + k * grid, cap) for k in range(start, min(start + _GRID_CHUNK, steps + 1))]
        for p, (s, ratio) in zip(ps, signal(ps)):
            if s == 0 or ratio <= log_tol:
                if band is None:
                    band, band_ratio = (p, p), ratio
                else:
                    band = (band[0], p)
                continue
            if last_p is None:
                if band is not None:
                    # the scan started inside a zero band; earliest root there
                    return band[0], band, _residual(band_ratio)
            elif s != last_s:
                return _bisect_root(signal, last_p, p, last_s, tol, stop)
            elif band is not None:
                # equal signs around a zero-classified run: touch-zero root
                mid = 0.5 * (band[0] + band[1])
                return mid, band, _residual(signal([mid])[0][1])
            last_p, last_s = p, s
            if stop is not None and last_p > stop:
                return None
    if band is not None:
        return band[0], band, _residual(band_ratio)
    return None


def _scan_for_roots(signals, lo: float, cap: float, grid: float, tol: float):
    """Earliest root of det(D_p) and of the bordered determinant over
    [lo, cap] as (root, kind, bracket, residual), the determinant root
    on a tie; None when neither has a root below the cap. `signals`
    supplies both batch signals (a `_PowerSignals`). The bordered scan
    runs first, so the determinant scan can stop once it is past the
    bordered root."""
    bord = _first_root(signals.bordered, lo, cap, grid, tol)
    det = _first_root(signals.det, lo, cap, grid, tol, stop=None if bord is None else bord[0])
    if det is not None and (bord is None or det[0] <= bord[0]):
        return det[0], ROOT_DETERMINANT, det[1], det[2]
    if bord is not None:
        return bord[0], ROOT_BORDERED, bord[1], bord[2]
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


def _check_scan(cap: float, tol: float, grid: float) -> None:
    _check_tol(tol)
    if not (math.isfinite(cap) and math.isfinite(grid) and cap >= 1 and grid > 0):
        raise DomainError(f"scan needs finite cap >= 1 and grid > 0; got cap={cap}, grid={grid}")
    points = (cap - 1) / grid + 1
    if points > MAX_GRID_POINTS:
        raise BudgetExceededError(
            f"scan of [1, {cap}] in steps of {grid} needs {points:.4g} grid points, over {MAX_GRID_POINTS}",
            required=points,
        )


def sanchez_wp(
    s: PointSet,
    cap: float = DEFAULT_CAP,
    tol: float = DEFAULT_TOL,
    grid: float = DEFAULT_GRID,
) -> NegTypeReport:
    """Supremal negative type as the first root of det(D_p) or of the
    bordered determinant on [1, cap].

    Affinely dependent sets short-circuit exactly: det(D_1) = 0, so the
    supremum is 1 with no floating-point work, at any cap. So do pairs,
    which have no root at any p (module docstring). Raises DomainError
    unless cap >= 1 and grid > 0 are finite, 0 < tol < 1 and D_cap fits
    float64 (pairs and dependent sets exempt), and BudgetExceededError
    for more than MAX_GRID_POINTS grid points.
    """
    _check_scan(cap, tol, grid)
    cap = float(cap)
    if s.kernel[-1] is not None:
        return NegTypeReport(1.0, ROOT_DETERMINANT, (1.0, 1.0), 0.0, cap)
    hit = None
    # a pair at distance d has det D_p = -d^(2p) and bordered determinant
    # 2 d^p, so neither vanishes at any p: no scan, and no overflow refusal
    if s.m > 1:
        _check_exponent(s, cap)
        # exact signs at p = 1 (module docstring): corner < 0, as G > 0 and u != 0
        parity = 1 if s.m % 2 else -1  # (-1)^(m-1)
        signals = _PowerSignals(s.d_rows, anchor=(1.0, -parity, parity))
        hit = _scan_for_roots(signals, 1.0, cap, grid, tol)
    if hit is None:
        hit = cap, ROOT_NONE_BELOW_CAP, (cap, cap), None
    root, kind, bracket, residual = hit
    return NegTypeReport(root, kind, bracket, residual, cap)


def strict_p_negative_type(s: PointSet, p: float, tol: float = DEFAULT_TOL) -> bool:
    """Whether p-negative type holds strictly: det(D_p) and
    <D_p^{-1}1, 1> both nonzero; at p = 1 decided by `det_int` alone.
    Raises DomainError unless 0 < tol < 1, and for p != 1
    NotNegativeTypeError when the set lacks p-negative type at all."""
    _check_tol(tol)
    rows = s.d_rows
    if p == 1:
        return det_int(rows) != 0 and det_int(cube.bordered_rows(rows)) != 0
    if not is_p_negative_type(s, p, tol):
        raise NotNegativeTypeError(f"set does not have {p}-negative type")
    # one bordered batch factorises D_p once for both signals;
    # <D_p^{-1}1, 1> nonzero is judged by the dimensionless bordered ratio
    signals = _PowerSignals(rows)
    (sign_b, ratio_b), = signals.bordered([p])
    (sign_d, ratio_d), = signals.det([p])
    log_tol = math.log(tol)
    return sign_d != 0 and ratio_d > log_tol and sign_b != 0 and ratio_b > log_tol


@dataclass(frozen=True)
class MuruganClassification:
    """Three equivalent views of the same dichotomy; they must agree."""

    affinely_independent: bool
    strict_1_negative_type: bool
    wp_exceeds_1: bool

    @property
    def consistent(self) -> bool:
        return self.affinely_independent == self.strict_1_negative_type == self.wp_exceeds_1


def murugan_classify(s: PointSet) -> MuruganClassification:
    """Affine independence (the rank test), strict 1-negative type
    (`det_int` of D, then of the bordered matrix if det D != 0) and
    wp > 1 (the Gram kernel and the root scan at the defaults, the only
    float work), all read from the set, which builds its rows and kernel
    once. Takes only the set and refuses none (module docstring)."""
    wp = sanchez_wp(s).wp
    return MuruganClassification(
        affinely_independent=cube.affinely_independent(s),
        strict_1_negative_type=strict_p_negative_type(s, 1.0),
        wp_exceeds_1=wp > 1.0,
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
    reported symbolically, never scanned. Both scans are bounded as in
    `sanchez_wp`, whose overflow refusal covers the q-scan (q/p <= cap).
    """
    if not p >= 1:
        raise DomainError(f"exponent {p} is not at least 1")
    base = sanchez_wp(s, cap, tol, grid)
    if base.is_lower_bound:
        raise CapExceededError(f"no root below cap {cap} for the base metric")
    wp1 = base.wp
    if math.isinf(p):
        return (math.inf, math.inf)
    if p == 1.0:
        return (wp1, wp1)
    if s.kernel[-1] is not None:
        # dependent: D_1 is exactly singular at q = p, and no root can
        # occur earlier, so the scaled supremum is exactly p
        return (float(p), p * wp1)
    _check_scan(p * float(cap), tol, p * grid)
    signals = _PowerSignals(s.d_rows, alpha=p)
    hit = _scan_for_roots(signals, 1.0, p * float(cap), p * grid, tol)
    if hit is None:
        raise CapExceededError(f"no root below {p * cap} for the transformed metric")
    return (hit[0], p * wp1)
