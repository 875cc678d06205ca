"""Singular integral operators on the plane and on the line.

The Beurling transform S (kernel -1/(pi (w-z)^2), multiplier xi_bar/xi)
and the plane Cauchy transform T (kernel -1/(pi (w-z)), with dbar(Tf) = f
and d(Tf) = Sf) are realized as Fourier multipliers on a zero-padded
grid.  Padding factor 1 is the exact periodic model (unimodular algebra,
exact isometry); factor >= 2 approximates the free-space operators for
compactly supported fields, with wraparound measured by the closed-form
ball oracles rather than assumed away.

Line-side operators: the Cauchy integral of line data evaluated off the
axis, Plemelj boundary values via the principal-value multiplier, and the
oscillatory Fourier transform of the difference-quotient kernel
K(x) = 2 log|(1+x)/x|.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.integrate import quad
from scipy.special import sici

from .field import ComplexField, Grid

__all__ = [
    "SpectralPlan",
    "SupportViolation",
    "LineFunction",
    "beurling",
    "beurling_adjoint",
    "cauchy_plane",
    "cauchy_at_points",
    "derivative_fd",
    "dbar_fd",
    "d_fd",
    "line_sample",
    "cauchy_line_extension",
    "cauchy_line_derivative",
    "line_pv_cauchy",
    "plemelj_boundary",
    "dq_kernel_transform",
]


class SupportViolation(ValueError):
    """A transform precondition on compact support was not met."""


class SpectralPlan:
    """Cached multiplier tables for S, S*, T on a padded frequency lattice.

    Parameters
    ----------
    grid : Grid
    padding_factor : int
        >= 1.  The field is zero-embedded into a (factor*n)^2 box before
        the FFT and truncated back after.  Factor 1 performs no padding
        and realizes the exact periodic operators; factor 2 (default) is
        the free-space approximation for compactly supported fields.

    Notes
    -----
    All multipliers vanish at xi = 0: the mean is annihilated, which
    fixes T's additive constant (mean-zero gauge).  |m_S| = 1 at every
    other lattice point.

    A padded apply is a pruned 2-D FFT (Frigo & Johnson 2005): the
    forward row transforms run only over the input's nonzero row span,
    since zero rows transform to zero, and the inverse row transforms
    only over the output rows that are kept.  It works in place in a
    (factor*n)^2 complex workspace, allocated on first use and reused,
    so an apply touches no fresh pages besides its n x n result.  The
    workspace costs 16 (factor*n)^2 bytes per plan and thread: 1 MiB at
    n = 128 and 16 MiB at n = 512 with the default factor.  The tables
    are read-only and each thread gets its own workspace, so a plan is
    safe to share across threads.
    """

    def __init__(self, grid: Grid, padding_factor: int = 2):
        if not isinstance(padding_factor, (int, np.integer)) or padding_factor < 1:
            raise ValueError(f"padding_factor must be an integer >= 1, got {padding_factor}")
        self.grid = grid
        self.padding_factor = int(padding_factor)
        self.n_padded = self.padding_factor * grid.n
        self.offset = (self.n_padded - grid.n) // 2
        freq = np.fft.fftfreq(self.n_padded, d=grid.spacing)
        xi = freq[:, None] + 1j * freq[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            m_s = np.conj(xi) / xi
            m_t = 1.0 / (1j * np.pi * xi)
        m_s[0, 0] = 0.0
        m_t[0, 0] = 0.0
        self.multiplier_s = m_s
        self.multiplier_s_star = np.conj(m_s)
        self.multiplier_t = m_t
        for table in (self.multiplier_s, self.multiplier_s_star, self.multiplier_t):
            table.setflags(write=False)
        self._local = threading.local()

    def apply(self, values: np.ndarray, table: np.ndarray, rows: slice | None = None) -> np.ndarray:
        """Zero-pad, multiply in frequency, truncate back.

        ``rows`` (padding >= 2 only) selects the output rows to compute;
        the others come back as zeros.  Callers that multiply the result
        by a field pass that field's nonzero row span.
        """
        n, N, off = self.grid.n, self.n_padded, self.offset
        if self.padding_factor == 1:
            return np.fft.ifft2(np.fft.fft2(values) * table)
        out = np.zeros((n, n), dtype=complex)
        span = _nonzero_rows(values)
        keep = range(n)[rows if rows is not None else slice(None)]
        if keep.step != 1:
            raise ValueError("rows must be a contiguous slice")
        if span.start == span.stop or not keep:
            return out
        work = getattr(self._local, "workspace", None)
        if work is None:
            work = self._local.workspace = np.empty((N, N), dtype=complex)
        work.fill(0.0)
        band = work[off + span.start : off + span.stop]
        band[:, off : off + n] = values[span]
        np.fft.fft(band, axis=1, out=band)
        np.fft.fft(work, axis=0, out=work)
        np.multiply(work, table, out=work)
        np.fft.ifft(work, axis=0, out=work)
        band = work[off + keep.start : off + keep.stop]
        np.fft.ifft(band, axis=1, out=band)
        out[keep.start : keep.stop] = band[:, off : off + n]
        return out


def _nonzero_rows(values: np.ndarray) -> slice:
    """Smallest row slice holding every nonzero entry of ``values``."""
    idx = np.flatnonzero(np.any(values, axis=1))
    return slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0)


def _check_plan(plan: SpectralPlan, f: ComplexField) -> None:
    if f.grid != plan.grid:
        raise ValueError("field grid does not match plan grid")
    # Free-space use requires declared compact support; the periodic
    # model (factor 1) has no such precondition.
    if plan.padding_factor >= 2 and f.support_radius is None:
        raise SupportViolation(
            "padded transforms require a field with declared compact support"
        )


def beurling(plan: SpectralPlan, f: ComplexField) -> ComplexField:
    """Beurling transform Sf via the multiplier xi_bar/xi."""
    _check_plan(plan, f)
    return ComplexField(f.grid, plan.apply(f.values, plan.multiplier_s))


def beurling_adjoint(plan: SpectralPlan, f: ComplexField) -> ComplexField:
    """Adjoint S* via the conjugate multiplier xi/xi_bar."""
    _check_plan(plan, f)
    return ComplexField(f.grid, plan.apply(f.values, plan.multiplier_s_star))


def cauchy_plane(plan: SpectralPlan, f: ComplexField) -> ComplexField:
    """Plane Cauchy transform Tf in the mean-zero gauge.

    The additive constant of T is fixed by annihilating the zero mode;
    closed-form comparisons must therefore match an additive constant at
    a reference point.
    """
    _check_plan(plan, f)
    return ComplexField(f.grid, plan.apply(f.values, plan.multiplier_t))


def _near_cell_integrals(zeta: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact (1/pi) cell integrals of 1/(zeta-u) and conj(u)/(zeta-u).

    The cell is the square |Re u|, |Im u| <= h/2.  Green's formula turns
    each area integral into four edge terms, each a single complex log;
    valid for zeta inside or outside the cell (the conj(u) integral picks
    up a residue-like term inside, which restores continuity across the
    cell edges).  A tiny deterministic offset keeps zeta off cell edges
    and corners, where the logs degenerate.
    """
    a = 0.5 * spacing
    zeta = zeta + (1e-9 * spacing) * (1.0 + 1.0j)
    zc = np.conj(zeta)
    corners = (-a - 1j * a, a - 1j * a, a + 1j * a, -a + 1j * a)
    coeffs = ((1, 2j * a), (-1, 2 * a), (1, -2j * a), (-1, -2 * a))
    acc0 = np.zeros(zeta.shape, dtype=complex)
    acc1 = np.zeros(zeta.shape, dtype=complex)
    for i, (alpha, beta) in enumerate(coeffs):
        dlog = np.log((zeta - corners[(i + 1) % 4]) / (zeta - corners[i]))
        edge = alpha * zeta + beta
        acc0 += (edge - zc) * dlog
        acc1 += edge**2 * dlog
    j0 = acc0 / (-2j * np.pi)
    inside = (np.abs(zeta.real) < a) & (np.abs(zeta.imag) < a)
    i1bar = acc1 / (-4j * np.pi) + np.where(inside, 0.5 * zc**2, 0.0)
    return j0, i1bar


def cauchy_at_points(f: ComplexField, points: np.ndarray) -> np.ndarray:
    """Free-space Tf at arbitrary points by direct kernel quadrature.

    Midpoint-rule sum of -1/(pi (w - z)) over the nonzero cells of f.
    Cells within two spacings of an evaluation point are instead
    integrated in closed form against a local linear model of the field
    (value plus finite-difference Wirtinger gradients): the point-mass
    kernel alone leaves an O(h) near-field error that would dominate
    interior evaluations.

    Parameters
    ----------
    f : ComplexField
    points : array_like of complex

    Returns
    -------
    ndarray of complex, same shape as ``points``.
    """
    points = np.asarray(points, dtype=complex)
    shape = points.shape
    pts = points.ravel()
    mask = np.abs(f.values) > 0
    src = f.grid.points()[mask]
    val = f.values[mask]
    out = np.zeros(pts.size, dtype=complex)
    if src.size:
        h = f.grid.spacing
        area = f.grid.cell_area()
        scale = -area / np.pi
        near_box = 2.0 * h
        grad_d = grad_db = None
        chunk = max(1, int(4_000_000 // max(src.size, 1)))
        for start in range(0, pts.size, chunk):
            block = pts[start : start + chunk, None]
            diff = src[None, :] - block
            nearmask = (np.abs(diff.real) < near_box) & (np.abs(diff.imag) < near_box)
            with np.errstate(divide="ignore", invalid="ignore"):
                kern = 1.0 / diff
            kern[nearmask] = 0.0
            acc = scale * (kern @ val)
            if nearmask.any():
                if grad_d is None:
                    fx = derivative_fd(f.values, h, axis=0, order=2)
                    fy = derivative_fd(f.values, h, axis=1, order=2)
                    grad_d = (0.5 * (fx - 1j * fy))[mask]
                    grad_db = (0.5 * (fx + 1j * fy))[mask]
                rows, cols = np.nonzero(nearmask)
                zeta = -diff[rows, cols]
                j0, i1bar = _near_cell_integrals(zeta, h)
                i1 = zeta * j0 - area / np.pi
                contrib = val[cols] * j0 + grad_d[cols] * i1 + grad_db[cols] * i1bar
                acc += np.bincount(rows, weights=contrib.real, minlength=acc.size)
                acc += 1j * np.bincount(rows, weights=contrib.imag, minlength=acc.size)
            out[start : start + chunk] = acc
    return out.reshape(shape)


# Antisymmetric centered first-derivative weights for offsets 1..p at
# order 2p, shared by the grid and the pointwise (Wirtinger) stencils.
_FD_WEIGHTS = {
    2: (0.5,),
    4: (2.0 / 3.0, -1.0 / 12.0),
    6: (3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0),
}


def derivative_fd(values: np.ndarray, spacing: float, axis: int, order: int = 6) -> np.ndarray:
    """Centered periodic finite difference along one axis."""
    out = np.zeros_like(values, dtype=complex)
    for s, w in enumerate(_FD_WEIGHTS[order], start=1):
        out += w * (np.roll(values, -s, axis=axis) - np.roll(values, s, axis=axis))
    return out / spacing


def dbar_fd(f: ComplexField, order: int = 6) -> ComplexField:
    """Discrete dbar = (d/dx + i d/dy)/2 with periodic wrap."""
    dx = derivative_fd(f.values, f.grid.spacing, axis=0, order=order)
    dy = derivative_fd(f.values, f.grid.spacing, axis=1, order=order)
    return ComplexField(f.grid, 0.5 * (dx + 1j * dy))


def d_fd(f: ComplexField, order: int = 6) -> ComplexField:
    """Discrete d = (d/dx - i d/dy)/2 with periodic wrap."""
    dx = derivative_fd(f.values, f.grid.spacing, axis=0, order=order)
    dy = derivative_fd(f.values, f.grid.spacing, axis=1, order=order)
    return ComplexField(f.grid, 0.5 * (dx - 1j * dy))


class LineFunction:
    """Uniform complex samples on [-X, X).

    Sample points are x_i = -X + i*d with d = 2X/m, the periodic
    convention used by the line Fourier multipliers.

    Parameters
    ----------
    half_width : float
        X > 0.
    values : ndarray, shape (m,)
    support_halfwidth : float, optional
        Declared |x| bound of the support; must be <= X/2 when given.
    """

    def __init__(self, half_width: float, values: np.ndarray, support_halfwidth: float | None = None):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 1 or values.size < 16:
            raise ValueError("values must be a 1-D array with at least 16 samples")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("line values must be finite")
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        if support_halfwidth is not None and support_halfwidth > half_width / 2:
            raise SupportViolation("declared support must lie inside [-X/2, X/2]")
        self.half_width = float(half_width)
        self.values = values.copy()
        self.values.setflags(write=False)
        self.spacing = 2.0 * self.half_width / values.size
        self.support_halfwidth = support_halfwidth

    @property
    def x(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.values.size)

    def size(self) -> int:
        return self.values.size


def line_sample(func, half_width: float, samples: int, support_halfwidth: float | None = None) -> LineFunction:
    """Sample a callable on the uniform line grid."""
    x = -half_width + (2.0 * half_width / samples) * np.arange(samples)
    return LineFunction(half_width, np.asarray(func(x), dtype=complex), support_halfwidth)


def _line_kernel_sum(f: LineFunction, pts: np.ndarray, power: int) -> np.ndarray:
    """Chunked quadrature of sum_i f(x_i)/(x_i - z)^power."""
    x = f.x
    nz = np.abs(f.values) > 0
    xs, vs = x[nz], f.values[nz]
    out = np.zeros(pts.size, dtype=complex)
    if xs.size:
        chunk = max(1, int(4_000_000 // xs.size))
        for start in range(0, pts.size, chunk):
            diff = xs[None, :] - pts[start : start + chunk, None]
            out[start : start + chunk] = (diff ** -power) @ vs
    return out


def cauchy_line_extension(f: LineFunction, eval_points: np.ndarray) -> np.ndarray:
    """Cauchy integral (1/2 pi i) int f(t)/(t - z) dt off the real axis.

    Trapezoid quadrature on the sample grid; spectrally accurate for
    smooth decaying data at points separated from the axis.

    Raises
    ------
    ValueError
        If any evaluation point has |Im z| < one line spacing.
    """
    pts = np.asarray(eval_points, dtype=complex)
    if np.any(np.abs(pts.imag) < f.spacing):
        raise ValueError("evaluation too close to the line: need |Im z| >= spacing")
    scale = f.spacing / (2j * np.pi)
    out = scale * _line_kernel_sum(f, pts.ravel(), 1)
    return out.reshape(pts.shape)


def cauchy_line_derivative(f: LineFunction, eval_points: np.ndarray) -> np.ndarray:
    """Derivative of the holomorphic extension, (1/2 pi i) int f(t)/(t - z)^2 dt.

    This is the ordinary derivative off the axis (no distributional
    term).  Same quadrature and distance requirement as
    :func:`cauchy_line_extension`.
    """
    pts = np.asarray(eval_points, dtype=complex)
    if np.any(np.abs(pts.imag) < f.spacing):
        raise ValueError("evaluation too close to the line: need |Im z| >= spacing")
    scale = f.spacing / (2j * np.pi)
    out = scale * _line_kernel_sum(f, pts.ravel(), 2)
    return out.reshape(pts.shape)


def _pv_multiplier(f: LineFunction) -> np.ndarray:
    xi = np.fft.fftfreq(f.values.size, d=f.spacing)
    return 0.5 * np.sign(xi)


def line_pv_cauchy(f: LineFunction) -> LineFunction:
    """Principal-value Cauchy integral on the line.

    Fourier realization of (1/2 pi i) PV int f(t)/(t - x) dt, whose
    multiplier is sgn(xi)/2.
    """
    spec = np.fft.fft(f.values) * _pv_multiplier(f)
    return LineFunction(f.half_width, np.fft.ifft(spec))


def plemelj_boundary(f: LineFunction) -> tuple[LineFunction, LineFunction]:
    """Boundary values (f_plus, f_minus) of the Cauchy integral of f.

    f_pm = pm f/2 + PV part, so the jump f_plus - f_minus reproduces f
    up to rounding.
    """
    pv = line_pv_cauchy(f).values
    f_plus = LineFunction(f.half_width, pv + 0.5 * f.values)
    f_minus = LineFunction(f.half_width, pv - 0.5 * f.values)
    return f_plus, f_minus


def _khat_base(u: float, cut: float = 40.0) -> complex:
    """Fourier transform of K(x) = 2 log|(1+x)/x| at frequency u > 0.

    Adaptive quadrature of the oscillatory integral on [-cut, cut] split
    at the singular points -1 and 0, plus sine/cosine-integral closed
    forms for the algebraic tails K(x) = 2/x - 1/x^2 + O(x^-3).
    """
    omega = 2.0 * np.pi * u

    def kernel(x):
        # clamp keeps the quadrature nodes that land exactly on the
        # integrable log singularities (x = 0, x = -1) finite
        num = max(abs(1.0 + x), 1e-300)
        den = max(abs(x), 1e-300)
        return 2.0 * math.log(num / den)

    total = 0.0 + 0.0j
    pieces = ((-cut, -1.0), (-1.0, 0.0), (0.0, cut))
    if omega * cut < 8.0:
        # mild oscillation: plain adaptive quadrature is reliable
        for a, b in pieces:
            re = quad(lambda x: kernel(x) * np.cos(omega * x), a, b, limit=400)[0]
            im = quad(lambda x: kernel(x) * np.sin(omega * x), a, b, limit=400)[0]
            total += re - 1j * im
    else:
        for a, b in pieces:
            re = quad(kernel, a, b, weight="cos", wvar=omega, limit=400)[0]
            im = quad(kernel, a, b, weight="sin", wvar=omega, limit=400)[0]
            total += re - 1j * im
    si, ci = sici(omega * cut)
    cos_int = -ci                      # int_cut^inf cos(omega x)/x dx
    sin_int = 0.5 * np.pi - si         # int_cut^inf sin(omega x)/x dx
    cos_int2 = np.cos(omega * cut) / cut - omega * sin_int
    sin_int2 = np.sin(omega * cut) / cut + omega * cos_int
    # positive tail: K ~ 2/x - 1/x^2; negative tail via x -> -x: K ~ -2/x - 1/x^2
    pos = (2.0 * cos_int - cos_int2) - 1j * (2.0 * sin_int - sin_int2)
    neg = (-2.0 * cos_int - cos_int2) + 1j * (-2.0 * sin_int - sin_int2)
    return total + pos + neg


def dq_kernel_transform(h_step: float, freqs: np.ndarray) -> np.ndarray:
    """Sampled Fourier transform of K_h(x) = (1/h) K(x/h).

    The dilation rule hat(K_h)(xi) = hat(K)(h xi) is applied after an
    honest numerical transform of the base kernel, so the rule holds
    by substitution rather than by assumption about the closed form.

    Parameters
    ----------
    h_step : float
        Positive difference-quotient step.
    freqs : array_like
        Nonzero frequencies (the transform has no limit at 0).

    Returns
    -------
    ndarray of complex
    """
    if h_step <= 0:
        raise ValueError("h_step must be positive")
    freqs = np.asarray(freqs, dtype=float)
    if np.any(freqs == 0.0):
        raise ValueError("frequencies must be nonzero")
    out = np.empty(freqs.shape, dtype=complex)
    it = np.nditer(freqs, flags=["multi_index"])
    for xi in it:
        u = h_step * float(xi)
        val = _khat_base(abs(u))
        out[it.multi_index] = val if u > 0 else np.conj(val)
    return out
