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
from scipy.interpolate import PchipInterpolator

from .field import BeltramiCoefficient, ComplexField, Grid
from .transforms import _FD_WEIGHTS

__all__ = [
    "MapEvaluator",
    "CurveTrace",
    "ChordArcReport",
    "BilipschitzProfile",
    "trace_curve",
    "chord_arc_constant",
    "chord_arc_witness_ratio",
    "bilipschitz_profile",
    "curve_cauchy_operator",
    "regularity_check",
    "ba_extension",
    "fd_wirtinger",
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
    notes : str
        Domain-of-validity remarks.
    dbar_field : ComplexField, optional
        The dbar(rho) grid field when produced by a solve.
    report : object, optional
        Solver report when applicable.
    """

    func: Callable[[np.ndarray], np.ndarray]
    provenance: str
    notes: str = ""
    dbar_field: ComplexField | None = None
    report: object | None = None

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

    def half_width(self) -> float:
        return float(max(-self.params[0], self.params[-1]))

    def strided(self, max_points: int) -> "CurveTrace":
        """Subsampled copy keeping at most max_points samples."""
        step = max(1, int(np.ceil(self.size() / max_points)))
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


def chord_arc_witness_ratio(trace: CurveTrace, i: int, j: int) -> float:
    """Arc/chord ratio for one index pair, the witness re-evaluation path."""
    chord = abs(trace.points[j] - trace.points[i])
    if chord == 0.0:
        raise ValueError("coincident trace points")
    return float((trace.cum_length[j] - trace.cum_length[i]) / chord)


def chord_arc_constant(trace: CurveTrace, window_fraction: float = 0.5) -> ChordArcReport:
    """Max arc/chord ratio over pairs in the middle window of the trace.

    The sup runs over pairs whose parameters both lie in the central
    ``window_fraction`` of the parameter interval; truncation distorts
    arcs near the ends of a curve through infinity, so the window is
    part of the reported quantity.

    Raises
    ------
    ValueError
        On coincident points inside the window (degenerate curve).
    """
    x = trace.params
    half = window_fraction * 0.5 * (x[-1] - x[0])
    mid = 0.5 * (x[0] + x[-1])
    idx = np.nonzero(np.abs(x - mid) <= half)[0]
    if idx.size < 2:
        raise ValueError("window contains fewer than two trace points")
    pts, cum = trace.points[idx], trace.cum_length[idx]
    best, best_pair = 0.0, (int(idx[0]), int(idx[1]))
    for a in range(idx.size - 1):
        chords = np.abs(pts[a + 1 :] - pts[a])
        if np.any(chords == 0.0):
            raise ValueError("coincident trace points")
        ratios = (cum[a + 1 :] - cum[a]) / chords
        b = int(np.argmax(ratios))
        if ratios[b] > best:
            best = float(ratios[b])
            best_pair = (int(idx[a]), int(idx[a + 1 + b]))
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


def curve_cauchy_operator(
    trace: CurveTrace, tol: float = 1e-4, max_iter: int = 300, seed: int = 0
) -> float:
    """Operator-norm estimate of the PV Cauchy integral on the trace.

    The matrix M_ij = (1/2 pi i) ds_j/(gamma_j - gamma_i), i != j, acts
    on the arclength-weighted l^2 space; conjugating by sqrt(ds) makes
    it the ordinary l^2 matrix

        A_ij = (1/2 pi i) sqrt(ds_i ds_j)/(gamma_j - gamma_i),  A_ii = 0,

    whose top singular value is estimated by power iteration on A*A.

    A is built in place once per call and reused by every matvec: one
    dense complex m x m array, 16 m^2 bytes (4 MiB at 512 points,
    64 MiB at the pipeline's 2048-point cap, 256 MiB at 4096).  A is
    skew-symmetric (A_ji = -A_ij), so the adjoint is applied as
    A* w = -conj(A conj(w)), with no second matrix.

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
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for _ in range(max_iter):
        w = kern @ v
        lam = float(np.vdot(w, w).real)
        v = -np.conj(kern @ np.conj(w))
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        v /= nv
        if abs(lam - lam_prev) <= tol * max(lam, 1e-300):
            lam_prev = lam
            break
        lam_prev = lam
    return float(np.sqrt(lam_prev))


def regularity_check(
    trace: CurveTrace, max_centers: int = 256, radii: np.ndarray | None = None
) -> float:
    """Sup of (arclength inside B(z0, R)) / R over trace centers and dyadic R.

    A segment counts as inside when its midpoint is; the segment scale
    sets the smallest reliable radius, so the default dyadic family
    starts at 8 median segment lengths and ends at half the trace span.
    """
    if trace.size() < 2:
        raise ValueError("empty trace")
    seg = trace.segment_lengths()
    mid = 0.5 * (trace.points[1:] + trace.points[:-1])
    if radii is None:
        r0 = 8.0 * float(np.median(seg))
        r1 = 0.5 * float(np.abs(trace.points[-1] - trace.points[0]))
        if r0 >= r1:
            raise ValueError("trace too short for the dyadic radius family")
        count = int(np.floor(np.log2(r1 / r0))) + 1
        radii = r0 * 2.0 ** np.arange(count)
    centers = trace.strided(max_centers).points
    best = 0.0
    for z0 in centers:
        dist = np.abs(mid - z0)
        for r in radii:
            mass = float(seg[dist <= r].sum())
            best = max(best, mass / r)
    return best


class _LineInterpolant:
    """Monotone interpolant of sampled boundary data, linear beyond the ends."""

    def __init__(self, lf):
        x, v = lf.x, lf.values.real
        if not np.all(np.diff(v) > 0):
            raise ValueError("boundary data must be strictly increasing")
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


def ba_extension(f, gl_order: int = 64) -> MapEvaluator:
    """Beurling-Ahlfors extension of an increasing boundary map of R.

    For y > 0,

        Re rho = (1/2) int_0^1 [f(x+ty) + f(x-ty)] dt,
        Im rho = (1/2) int_0^1 [f(x+ty) - f(x-ty)] dt,

    evaluated by fixed-order Gauss-Legendre quadrature; the lower
    half-plane is filled in by the reflection rho(conj z) = conj(rho(z)).
    The identity boundary map yields rho(x+iy) = x + iy/2, the constant
    vertical normalization of this construction.

    Parameters
    ----------
    f : callable or LineFunction
        Strictly increasing real boundary data.  Sampled data is
        interpolated monotonically (PCHIP) and extended linearly.
    gl_order : int
        Quadrature order; the integrand is smooth for smooth f.

    Raises
    ------
    ValueError
        If sampled data is not strictly increasing.
    """
    if callable(f):
        boundary = f
        note = "extension of callable boundary data"
    else:
        boundary = _LineInterpolant(f)
        note = "extension of sampled boundary data (pchip + linear tails)"
    nodes, weights = np.polynomial.legendre.leggauss(gl_order)
    t = 0.5 * (nodes + 1.0)
    wt = 0.5 * weights

    def evaluate(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        x, y = flat.real, flat.imag
        ya = np.abs(y)
        out = np.empty(flat.size, dtype=complex)
        on_axis = ya == 0.0
        if on_axis.any():
            out[on_axis] = boundary(x[on_axis])
        off = ~on_axis
        if off.any():
            xo, yo = x[off], ya[off]
            plus = boundary(xo[:, None] + t[None, :] * yo[:, None])
            minus = boundary(xo[:, None] - t[None, :] * yo[:, None])
            re = 0.5 * ((plus + minus) @ wt)
            im = 0.5 * ((plus - minus) @ wt)
            val = re + 1j * im
            val = np.where(y[off] > 0, val, np.conj(val))
            out[off] = val
        return out.reshape(z.shape)

    return MapEvaluator(evaluate, provenance="extension", notes=note)


def fd_wirtinger(
    rho: MapEvaluator, points: np.ndarray, steps: np.ndarray, order: int = 2
) -> tuple[np.ndarray, np.ndarray]:
    """Centered finite-difference Wirtinger derivatives (dbar, d) of a map.

    The stencil reaches ``(order/2) * steps`` from each point along both
    axes; callers whose map is only piecewise smooth must keep that
    reach inside one smooth piece.
    """
    if order not in _FD_WEIGHTS:
        raise ValueError(f"order must be one of {sorted(_FD_WEIGHTS)}")
    points = np.asarray(points, dtype=complex)
    steps = np.broadcast_to(np.asarray(steps, dtype=float), points.shape)
    fx = np.zeros(points.shape, dtype=complex)
    fy = np.zeros(points.shape, dtype=complex)
    for m, c in enumerate(_FD_WEIGHTS[order], start=1):
        fx += c * (rho(points + m * steps) - rho(points - m * steps))
        fy += c * (rho(points + 1j * m * steps) - rho(points - 1j * m * steps))
    fx /= steps
    fy /= steps
    dbar = 0.5 * (fx + 1j * fy)
    d = 0.5 * (fx - 1j * fy)
    return dbar, d


def map_dilatation(
    rho: MapEvaluator, grid: Grid, rel_step: float = 0.125, order: int = 6
) -> BeltramiCoefficient:
    """Dilatation mu = dbar(rho)/d(rho) sampled on the grid.

    The finite-difference step at each sample is ``rel_step * |Im z|``,
    which keeps the stencil inside one half-plane (required for maps
    defined by reflection) and makes the relative truncation error
    uniform for maps with power-law behavior near the axis.

    The result is truncated to the grid box: its declared support radius
    is the grid diagonal, so non-compact dilatations are represented by
    their restriction, reported as such.
    """
    pts = grid.points()
    steps = rel_step * np.abs(pts.imag)
    dbar, d = fd_wirtinger(rho, pts, steps, order=order)
    mu = dbar / d
    radius = float(np.sqrt(2.0) * grid.half_width)
    return BeltramiCoefficient(ComplexField(grid, mu, support_radius=radius))


def prop2_map(K: float, grid: Grid, fd_rel_step: float = 0.04) -> tuple[MapEvaluator, BeltramiCoefficient]:
    """Closed-form sector map with |rho(z)| = |z|^(1/K), and its dilatation.

    rho(z) = z^(1/K) on the sector E0 = {|arg z| < pi/4}, equals
    -(-z)^(1/K) on E1 = -E0, and elsewhere keeps modulus |z|^(1/K) with
    a piecewise-linear argument interpolating the sector boundary
    values.  Restricted to R it is sign(x) |x|^(1/K).

    The dilatation is sampled on the grid by high-order centered finite
    differences of the closed form, truncated to the grid box.  The map
    is only Lipschitz across the sector rays, so each grid point is
    differenced against its own sector's formula (each branch extends
    analytically past its ray); the per-point step scales with |z|,
    keeping the relative truncation error uniform for the power-law map.

    Parameters
    ----------
    K : float
        Distortion parameter, 1 < K < 2.
    grid : Grid
    fd_rel_step : float
        Step of the dilatation sampling, relative to |z|.

    Raises
    ------
    ValueError
        If K is out of range.
    """
    if not 1.0 < K < 2.0:
        raise ValueError(f"K must lie in (1, 2), got {K}")
    alpha = 1.0 / K
    quarter = 0.25 * np.pi
    slope = 2.0 - alpha

    def branch_e0(z):
        return z**alpha

    def branch_e1(z):
        return -((-z) ** alpha)

    def branch_upper(z):
        return np.abs(z) ** alpha * np.exp(1j * (alpha * quarter + (np.angle(z) - quarter) * slope))

    def branch_lower(z):
        return np.conj(branch_upper(np.conj(z)))

    def evaluate(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.zeros(flat.size, dtype=complex)
        nz = flat != 0
        zz = flat[nz]
        theta = np.angle(zz)
        val = np.empty(zz.size, dtype=complex)
        e0 = np.abs(theta) <= quarter
        e1 = np.abs(theta) >= 3.0 * quarter
        up = ~(e0 | e1) & (theta > 0)
        low = ~(e0 | e1) & (theta < 0)
        val[e0] = branch_e0(zz[e0])
        val[e1] = branch_e1(zz[e1])
        val[up] = branch_upper(zz[up])
        val[low] = branch_lower(zz[low])
        out[nz] = val
        return out.reshape(z.shape)

    pts = grid.points()
    theta = np.angle(pts)
    masks = {
        branch_e0: np.abs(theta) <= quarter,
        branch_e1: np.abs(theta) >= 3.0 * quarter,
        branch_upper: (np.abs(theta) > quarter) & (np.abs(theta) < 3.0 * quarter) & (theta > 0),
        branch_lower: (np.abs(theta) > quarter) & (np.abs(theta) < 3.0 * quarter) & (theta < 0),
    }
    dbar_vals = np.empty(pts.shape, dtype=complex)
    d_vals = np.empty(pts.shape, dtype=complex)
    for branch, mask in masks.items():
        zs = pts[mask]
        db, dd = fd_wirtinger(branch, zs, fd_rel_step * np.abs(zs), order=6)
        dbar_vals[mask] = db
        d_vals[mask] = dd
    radius = float(np.sqrt(2.0) * grid.half_width)
    dbar_field = ComplexField(grid, dbar_vals, support_radius=radius)
    mu = BeltramiCoefficient(ComplexField(grid, dbar_vals / d_vals, support_radius=radius))

    evaluator = MapEvaluator(
        evaluate,
        provenance="closed-form",
        notes=f"sector map, K={K}; dilatation vanishes on E0 and E1",
        dbar_field=dbar_field,
    )
    return evaluator, mu
