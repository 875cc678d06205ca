"""Curve-side measurements on images of the real line.

Traces of rho(R), chord-arc and bilipschitz constants, David-regularity
ratios, the discretized principal-value Cauchy integral on a curve, the
Beurling-Ahlfors extension of an increasing boundary map, and the
closed-form sector map with |rho(z)| = |z|^(1/K).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable

import numpy as np

from .field import BeltramiCoefficient, ComplexField, Grid
from .transforms import _lanczos_top, _row_blocks

__all__ = [
    "MapEvaluator",
    "CurveTrace",
    "ChordArcReport",
    "BilipschitzProfile",
    "trace_curve",
    "chord_arc_constant",
    "bilipschitz_profile",
    "curve_cauchy_operator",
    "regularity_check",
    "ba_extension",
    "map_dilatation",
    "prop2_map",
]


@dataclass
class MapEvaluator:
    """A callable planar map z -> rho(z).

    Parameters
    ----------
    func : callable
        Vectorized complex -> complex evaluation.
    provenance : str
        One of 'solver', 'closed-form', 'extension'.
    dbar_field : ComplexField, optional
        The dbar(rho) grid field, set by the solver and, for the
        closed-form scenario maps, by ``build_scenario``.
    report : object, optional
        Solver report when applicable.
    _wirtinger : callable, optional
        Exact z -> (dbar rho, d rho) off the real axis, set by the
        closed-form maps; :func:`map_dilatation` needs it.
    """

    func: Callable[[np.ndarray], np.ndarray]
    provenance: str
    dbar_field: ComplexField | None = None
    report: object | None = None
    _wirtinger: Callable | None = dataclass_field(default=None, repr=False)

    def __call__(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.asarray(self.func(z), dtype=complex)
        return out


class CurveTrace:
    """Ordered samples of a curve with cumulative polyline arclength.

    Parameters
    ----------
    params : ndarray
        Strictly increasing parameter values (the x of rho(x)).
    points : ndarray of complex
        Curve samples, same length.
    """

    def __init__(self, params: np.ndarray, points: np.ndarray):
        params = np.asarray(params, dtype=float)
        points = np.asarray(points, dtype=complex)
        if params.ndim != 1 or params.shape != points.shape:
            raise ValueError("params and points must be 1-D arrays of equal length")
        if params.size < 2:
            raise ValueError("a trace needs at least two points")
        if not np.all(np.diff(params) > 0):
            raise ValueError("params must be strictly increasing")
        if not (np.all(np.isfinite(params)) and np.all(np.isfinite(points))):
            raise ValueError("trace contains non-finite values")
        self.params = params.copy()
        self.points = points.copy()
        seg = np.abs(np.diff(points))
        self.cum_length = np.concatenate([[0.0], np.cumsum(seg)])
        for arr in (self.params, self.points, self.cum_length):
            arr.setflags(write=False)

    def size(self) -> int:
        return self.params.size

    def total_length(self) -> float:
        return float(self.cum_length[-1])

    def segment_lengths(self) -> np.ndarray:
        return np.diff(self.cum_length)

    def strided(self, max_points: int) -> "CurveTrace":
        """Subsampled copy keeping at most max_points >= 2 samples."""
        if max_points < 2:
            raise ValueError(f"max_points must be at least 2, got {max_points}")
        step = int(np.ceil(self.size() / max_points))
        return CurveTrace(self.params[::step], self.points[::step])

    def to_csv(self, path) -> None:
        """CSV export: x, Re gamma, Im gamma, cum_length per line."""
        table = np.column_stack(
            [self.params, self.points.real, self.points.imag, self.cum_length]
        )
        np.savetxt(path, table, delimiter=",", header="x,re,im,cum_length", comments="")


def trace_curve(rho: MapEvaluator, half_width: float, samples: int) -> CurveTrace:
    """Sample Gamma = rho([-X, X]) on a uniform parameter grid."""
    if samples < 64:
        raise ValueError("samples must be >= 64")
    x = np.linspace(-half_width, half_width, samples)
    return CurveTrace(x, rho(x))


@dataclass
class ChordArcReport:
    """Windowed chord-arc constant with its attaining pair."""

    constant: float
    witness: tuple[int, int]
    window_half_width: float
    sample_count: int

    def to_json_dict(self) -> dict:
        return {
            "constant": self.constant,
            "witness": [int(self.witness[0]), int(self.witness[1])],
            "window_half_width": self.window_half_width,
            "sample_count": int(self.sample_count),
        }


def _chord_arc_witness_ratio(trace: CurveTrace, i: int, j: int) -> float:
    """Arc/chord ratio for one index pair, the witness re-evaluation path."""
    # numpy's array abs of a complex difference, as in chord_arc_constant:
    # the scalar abs can differ from it in the last bit
    chord = np.abs(trace.points[[j]] - trace.points[i])[0]
    if chord == 0.0:
        raise ValueError("coincident trace points")
    return float((trace.cum_length[j] - trace.cum_length[i]) / chord)


# the central fraction of a trace's parameter interval that chord_arc_constant sweeps
_CHORD_ARC_WINDOW = 0.5


def chord_arc_constant(trace: CurveTrace) -> ChordArcReport:
    """Max arc/chord ratio over pairs in the middle window of the trace.

    The sup runs over pairs whose parameters both lie in the central
    half of the parameter interval; truncation distorts arcs near the
    ends of a curve through infinity, so the window is part of the
    reported quantity.

    Raises
    ------
    ValueError
        On coincident points inside the window (degenerate curve).
    """
    x = trace.params
    half = _CHORD_ARC_WINDOW * 0.5 * (x[-1] - x[0])
    mid = 0.5 * (x[0] + x[-1])
    idx = np.nonzero(np.abs(x - mid) <= half)[0]
    if idx.size < 2:
        raise ValueError("window contains fewer than two trace points")
    pts, cum = trace.points[idx], trace.cum_length[idx]
    best, best_pair = 0.0, (int(idx[0]), int(idx[1]))
    # Row a - first of a block holds the pairs (a, b) at column b - first - 1.
    # Pairs with b <= a have arcs <= 0, so their ratios never beat best >= 0.
    # A block's first maximum in row-major order is the first of the
    # sweep's maxima in that block; keeping it only when it beats every
    # earlier block keeps the first maximum of the whole sweep.
    for rows in _row_blocks(idx.size - 1, idx.size, 48):
        first, last = rows.start, rows.stop
        upper = np.arange(idx.size - first - 1)[None, :] >= np.arange(last - first)[:, None]
        chords = np.abs(pts[None, first + 1 :] - pts[first:last, None])
        if np.any(chords[upper] == 0.0):
            raise ValueError("coincident trace points")
        chords[~upper] = 1.0
        ratios = (cum[None, first + 1 :] - cum[first:last, None]) / chords
        a, b = np.unravel_index(np.argmax(ratios), ratios.shape)
        if ratios[a, b] > best:
            best = float(ratios[a, b])
            best_pair = (int(idx[first + a]), int(idx[first + 1 + b]))
    return ChordArcReport(
        constant=best,
        witness=best_pair,
        window_half_width=float(half),
        sample_count=int(idx.size),
    )


@dataclass
class BilipschitzProfile:
    lower: float
    upper: float
    blowup_exponent: float | None


def bilipschitz_profile(rho: MapEvaluator, pairs) -> BilipschitzProfile:
    """Distortion ratios |rho(z)-rho(w)|/|z-w| over a pair set.

    Returns the min and max ratio, plus a log-log slope of ratio against
    separation fitted on the pairs whose segment passes through the
    origin (the blowup probe); None when fewer than three such pairs
    exist.
    """
    pairs = np.asarray(pairs, dtype=complex)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (m, 2)")
    z, w = pairs[:, 0], pairs[:, 1]
    sep = np.abs(z - w)
    if np.any(sep == 0.0):
        raise ValueError("pairs must be distinct")
    ratio = np.abs(rho(z) - rho(w)) / sep
    straddle = np.abs(z) + np.abs(w) <= sep * (1.0 + 1e-12)
    exponent = None
    if straddle.sum() >= 3:
        slope = np.polyfit(np.log(sep[straddle]), np.log(ratio[straddle]), 1)[0]
        exponent = float(slope)
    return BilipschitzProfile(float(ratio.min()), float(ratio.max()), exponent)


def _node_weights(trace: CurveTrace) -> np.ndarray:
    # midpoint arclength weights: half-segments on each side of a node
    seg = trace.segment_lengths()
    ds = np.empty(trace.size())
    ds[0] = 0.5 * seg[0]
    ds[-1] = 0.5 * seg[-1]
    ds[1:-1] = 0.5 * (seg[:-1] + seg[1:])
    return ds


def curve_cauchy_operator(trace: CurveTrace, tol: float = 1e-4, max_iter: int = 300) -> float:
    """Operator-norm estimate of the PV Cauchy integral on the trace.

    The matrix M_ij = (1/2 pi i) ds_j/(gamma_j - gamma_i), i != j, acts
    on the arclength-weighted l^2 space; conjugating by sqrt(ds) makes
    it the ordinary l^2 matrix

        A_ij = (1/2 pi i) sqrt(ds_i ds_j)/(gamma_j - gamma_i),  A_ii = 0,

    whose top singular value is estimated by Lanczos iteration on A*A,
    from a start vector drawn with seed 0, until the relative Ritz residual
    ||A*A y - theta y|| / theta is at most ``tol``.

    A is built in place once per call and reused by every matvec: one
    dense complex m x m array, 16 m^2 bytes (4 MiB at 512 points,
    64 MiB at the pipeline's 2048-point cap, 256 MiB at 4096).  A is
    skew-symmetric (A_ji = -A_ij), so the adjoint is applied as
    A* w = -conj(A conj(w)), with no second matrix.  The iteration
    itself holds three length-m vectors.

    Raises
    ------
    ValueError
        On coincident points.
    """
    gamma = trace.points
    if np.unique(gamma).size != gamma.size:
        raise ValueError("coincident trace points")
    m = gamma.size
    sqrt_ds = np.sqrt(_node_weights(trace))
    kern = np.empty((m, m), dtype=complex)
    np.subtract(gamma[None, :], gamma[:, None], out=kern)
    np.fill_diagonal(kern, 1.0)
    np.reciprocal(kern, out=kern)
    np.fill_diagonal(kern, 0.0)
    kern *= sqrt_ds[:, None] / (2j * np.pi)
    kern *= sqrt_ds[None, :]
    rng = np.random.default_rng(0)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    history, _ = _lanczos_top(
        lambda v: -np.conj(kern @ np.conj(kern @ v)), np.vdot, v, tol, max_iter
    )
    return float(np.sqrt(history[-1]))


def regularity_check(trace: CurveTrace) -> float:
    """Sup of (arclength inside B(z0, R)) / R over trace centers and dyadic R.

    The centers are at most 256 evenly strided trace points.  A segment
    counts as inside when its midpoint is; the segment scale sets the
    smallest reliable radius, so the dyadic radii start at 8 median
    segment lengths and end at half the trace span.
    """
    seg = trace.segment_lengths()
    mid = 0.5 * (trace.points[1:] + trace.points[:-1])
    r0 = 8.0 * float(np.median(seg))
    r1 = 0.5 * float(np.abs(trace.points[-1] - trace.points[0]))
    if r0 >= r1:
        raise ValueError("trace too short for the dyadic radius family")
    radii = r0 * 2.0 ** np.arange(int(np.floor(np.log2(r1 / r0))) + 1)
    centers = trace.strided(256).points
    best = 0.0
    for rows in _row_blocks(centers.size, seg.size, 24):
        dist = np.abs(mid[None, :] - centers[rows, None])
        for r in radii:
            mass = np.where(dist <= r, seg, 0.0).sum(axis=1)
            best = max(best, float((mass / r).max()))
    return best


class _LineInterpolant:
    """Monotone interpolant of sampled boundary data, linear beyond the ends."""

    def __init__(self, lf):
        x, v = lf.x, lf.values.real
        if not np.all(np.diff(v) > 0):
            raise ValueError("boundary data must be strictly increasing")
        # imported here: scipy.interpolate is slow to load and only
        # sampled boundary data needs it
        from scipy.interpolate import PchipInterpolator

        self._pchip = PchipInterpolator(x, v, extrapolate=False)
        self._x0, self._x1 = x[0], x[-1]
        self._v0, self._v1 = v[0], v[-1]
        d = x[1] - x[0]
        self._s0 = (v[1] - v[0]) / d
        self._s1 = (v[-1] - v[-2]) / d

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self._pchip(np.clip(t, self._x0, self._x1))
        lo, hi = t < self._x0, t > self._x1
        out[lo] = self._v0 + self._s0 * (t[lo] - self._x0)
        out[hi] = self._v1 + self._s1 * (t[hi] - self._x1)
        return out


def ba_extension(f) -> MapEvaluator:
    """Beurling-Ahlfors extension of an increasing boundary map of R.

    For y > 0, with A = int_0^1 f(x+ty) dt and B = int_0^1 f(x-ty) dt,

        rho = (1/2) [(1+i) A + (1-i) B],

    evaluated by 64-point Gauss-Legendre quadrature; the lower
    half-plane is filled in by the reflection rho(conj z) = conj(rho(z)).
    The identity boundary map yields rho(x+iy) = x + iy/2, the constant
    vertical normalization of this construction.

    The evaluator carries the exact Wirtinger pair, from the same
    quadratures: A_x = (f(x+y) - f(x))/y, A_y = (f(x+y) - A)/y,
    B_x = (f(x) - f(x-y))/y, B_y = (f(x-y) - B)/y, and both derivatives
    reflect by conjugation, like rho itself.

    Parameters
    ----------
    f : callable or LineFunction
        Strictly increasing real boundary data.  Sampled data is
        interpolated monotonically (PCHIP) and extended linearly.

    Raises
    ------
    ValueError
        If sampled data is not strictly increasing.
    """
    boundary = f if callable(f) else _LineInterpolant(f)
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (nodes + 1.0)
    wt = 0.5 * weights

    def averages(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # the window means A and B at flat x and y > 0
        a = boundary(x[:, None] + t[None, :] * y[:, None]) @ wt
        b = boundary(x[:, None] - t[None, :] * y[:, None]) @ wt
        return a, b

    def evaluate(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        x, y = flat.real, flat.imag
        out = np.empty(flat.size, dtype=complex)
        on_axis = y == 0.0
        if on_axis.any():
            out[on_axis] = boundary(x[on_axis])
        off = ~on_axis
        if off.any():
            a, b = averages(x[off], np.abs(y[off]))
            val = 0.5 * ((1 + 1j) * a + (1 - 1j) * b)
            out[off] = np.where(y[off] > 0, val, np.conj(val))
        return out.reshape(z.shape)

    def wirtinger(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        x, y = flat.real, np.abs(flat.imag)
        a, b = averages(x, y)
        fp, f0, fm = boundary(x + y), boundary(x), boundary(x - y)
        rho_x = 0.5 * ((1 + 1j) * (fp - f0) + (1 - 1j) * (f0 - fm)) / y
        rho_y = 0.5 * ((1 + 1j) * (fp - a) + (1 - 1j) * (fm - b)) / y
        pair = (0.5 * (rho_x + 1j * rho_y), 0.5 * (rho_x - 1j * rho_y))
        return tuple(np.where(flat.imag < 0, np.conj(w), w).reshape(z.shape) for w in pair)

    return MapEvaluator(evaluate, provenance="extension", _wirtinger=wirtinger)


def _dbar_and_mu(rho: MapEvaluator, grid: Grid) -> tuple[ComplexField, BeltramiCoefficient]:
    """(dbar rho, mu) on the grid, from the map's exact Wirtinger pair."""
    if rho._wirtinger is None:
        raise ValueError("map_dilatation needs a map with an exact Wirtinger pair")
    dbar, d = rho._wirtinger(grid.points())
    return ComplexField(grid, dbar), BeltramiCoefficient(ComplexField(grid, dbar / d))


def map_dilatation(rho: MapEvaluator, grid: Grid) -> BeltramiCoefficient:
    """Dilatation mu = dbar(rho)/d(rho) sampled on the grid.

    Both closed-form maps, :func:`ba_extension` and :func:`prop2_map`,
    are sampled alike, through their exact Wirtinger pairs.

    The result is truncated to the grid box, so a non-compact dilatation
    is represented by its restriction to the box.

    Raises
    ------
    ValueError
        If the map carries no exact Wirtinger pair.
    """
    return _dbar_and_mu(rho, grid)[1]


def prop2_map(K: float) -> MapEvaluator:
    """Closed-form sector map with |rho(z)| = |z|^(1/K).

    With a = 1/K and z = r e^(i theta), rho(z) = r^a exp(i sign(theta)
    phi(|theta|)), phi piecewise linear through (0, 0), (pi/4, a pi/4),
    (3pi/4, pi - a pi/4), (pi, pi): rho(z) = z^a on the sector
    E0 = {|arg z| <= pi/4}, -(-z)^a on E1 = -E0, and the argument is
    interpolated in between.  Restricted to R it is sign(x) |x|^a.

    With s = phi' (a on E0 and E1, 2 - a between), the exact pair
    dbar rho = e^(i theta) rho (a - s)/(2r), d rho = e^(-i theta) rho
    (a + s)/(2r) gives mu = 0 on E0 and E1 and |mu| = 1 - 1/K between.
    The evaluator carries that pair, so :func:`map_dilatation` samples
    mu from it exactly, as for :func:`ba_extension`.

    Parameters
    ----------
    K : float
        Distortion parameter, 1 < K < 2.

    Raises
    ------
    ValueError
        If K is out of range.
    """
    if not 1.0 < K < 2.0:
        raise ValueError(f"K must lie in (1, 2), got {K}")
    alpha = 1.0 / K
    quarter = 0.25 * np.pi
    knots = (0.0, quarter, 3.0 * quarter, np.pi)
    phases = (0.0, alpha * quarter, np.pi - alpha * quarter, np.pi)

    def evaluate(z: np.ndarray) -> np.ndarray:
        theta = np.angle(z)
        return np.abs(z) ** alpha * np.exp(1j * np.sign(theta) * np.interp(np.abs(theta), knots, phases))

    def wirtinger(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = np.asarray(z, dtype=complex)
        r, theta = np.abs(z), np.angle(z)
        middle = (np.abs(theta) > quarter) & (np.abs(theta) < 3.0 * quarter)
        s = np.where(middle, 2.0 - alpha, alpha)
        half = evaluate(z) / (2.0 * r)
        turn = np.exp(1j * theta)
        return turn * half * (alpha - s), np.conj(turn) * half * (alpha + s)

    return MapEvaluator(evaluate, provenance="closed-form", _wirtinger=wirtinger)
