"""Singular integral operators on the plane and on the line.

The Beurling transform S (kernel -1/(pi (w-z)^2), multiplier xi_bar/xi)
and the plane Cauchy transform T (kernel -1/(pi (w-z)), with dbar(Tf) = f
and d(Tf) = Sf) are realized as Fourier multipliers on a zero-padded
grid.  Padding factor 1 is the exact periodic model (unimodular algebra,
exact isometry); factor >= 2 approximates the free-space operators on
the field extended by zero beyond the grid square, with wraparound
measured by the closed-form ball oracles rather than assumed away.
Every factor runs one apply, an overlap-save block convolution that
computes only the output box asked for.

Line-side operators: the Cauchy integral of line data evaluated off the
axis, Plemelj boundary values via the principal-value multiplier, and the
closed-form Fourier transform of the difference-quotient kernel
K(x) = 2 log|(1+x)/x|.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np
import scipy.fft
from scipy.linalg.lapack import dstebz, dstein

from .field import ComplexField, Grid, _check_half_width

__all__ = [
    "SpectralPlan",
    "LineFunction",
    "beurling",
    "cauchy_plane",
    "cauchy_at_points",
    "dbar_fd",
    "d_fd",
    "line_sample",
    "cauchy_line_extension",
    "cauchy_line_derivative",
    "line_pv_cauchy",
    "plemelj_boundary",
    "dq_kernel_transform",
]


# Holds every (table, input box, output box) key of one pipeline run, so
# repeated runs on one grid rebuild no window.  The default ball uses 8:
# one (S, B, B) for the Neumann steps on mu's box B (and the solve's
# source, whose right-hand side is mu), one (S, box(Phi), B) for each of
# the 5 distinct probe boxes, and the two steps of the weighted norm.
_WINDOW_CACHE_SIZE = 16


@lru_cache(maxsize=8)
def _multipliers(grid: Grid, padding_factor: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only tables of S, S*, T on the (padding_factor*n)^2 frequency lattice."""
    freq = np.fft.fftfreq(padding_factor * grid.n, d=grid.spacing)
    xi = freq[:, None] + 1j * freq[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        m_s = np.conj(xi) / xi
        m_t = 1.0 / (1j * np.pi * xi)
    m_s[0, 0] = 0.0
    m_t[0, 0] = 0.0
    tables = (m_s, np.conj(m_s), m_t)
    for table in tables:
        table.setflags(write=False)
    return tables


@lru_cache(maxsize=3 * 8)
def _kernel(grid: Grid, padding_factor: int, which: int) -> np.ndarray:
    """kappa = ifft2 of table ``which`` of :func:`_multipliers`, read-only."""
    kernel = np.fft.ifft2(_multipliers(grid, padding_factor)[which])
    kernel.setflags(write=False)
    return kernel


@lru_cache(maxsize=_WINDOW_CACHE_SIZE)
def _window(grid: Grid, padding_factor: int, which: int, in_r, in_c, out_r, out_c) -> np.ndarray:
    """FFT of kappa at the offsets out - in, zero-padded to a fast size;
    each box is a (start, stop) pair of ints."""
    N = padding_factor * grid.n
    r_idx = np.arange(out_r[0] - in_r[1] + 1, out_r[1] - in_r[0]) % N
    c_idx = np.arange(out_c[0] - in_c[1] + 1, out_c[1] - in_c[0]) % N
    shape = (scipy.fft.next_fast_len(r_idx.size), scipy.fft.next_fast_len(c_idx.size))
    window = scipy.fft.fft2(_kernel(grid, padding_factor, which)[np.ix_(r_idx, c_idx)], s=shape)
    window.setflags(write=False)
    return window


class SpectralPlan:
    """Multiplier tables for S, S*, T on a padded frequency lattice.

    Parameters
    ----------
    grid : Grid
    padding_factor : int
        >= 1.  The field is zero-embedded into a (factor*n)^2 box before
        the FFT and truncated back after.  Factor 1 performs no padding
        and realizes the exact periodic operators; factor 2 (default) is
        the free-space approximation, which takes the field to be zero
        outside the grid square.

    Notes
    -----
    All multipliers vanish at xi = 0: the mean is annihilated, which
    fixes T's additive constant (mean-zero gauge).  |m_S| = 1 at every
    other lattice point.

    An apply is the (factor*n)-periodic convolution with the kernel
    kappa = ifft2(table), so it needs kappa only at the offsets O - I
    (mod factor*n) between the output box O (``rows`` x ``cols``) and
    the input box I.  It is an exact overlap-save convolution (Stockham
    1966) of the input box with that window of kappa, in FFTs of
    ``next_fast_len(|O| + |I| - 1)`` points per axis: the same linear
    map as the full product, up to rounding, whatever the boxes.  With
    factor >= 2 two cells of the n x n box differ by less than the
    period in each index, so no offset aliases.  At factor 1 offsets
    alias, the window repeats entries of kappa, and the result is the
    periodic product.

    The tables, kappa and the window transforms are ``functools.lru_cache``
    entries keyed on values, (grid, factor[, table[, I, O]]), so equal
    plans share them.  kappa is built once per (grid, factor, table):
    16 (factor*n)^2 bytes, 1 MiB at n = 128 and 16 MiB at n = 512 with
    the default factor.  At most ``_WINDOW_CACHE_SIZE`` windows are kept
    in all, each at most 16 next_fast_len(2n - 1)^2 bytes (1 MiB at
    n = 128, 16 MiB at n = 512); the boxes of a compactly supported mu
    keep them far smaller.  ``apply`` raises ``ValueError`` for a table
    that is not one of the plan's own three.  The cached arrays are
    read-only and ``lru_cache`` is thread-safe, so a plan is safe to
    share across threads.

    A block-form apply takes a stack of p blocks at one input box,
    shape (p, |I rows|, |I cols|), and returns the p output blocks on O:
    the same four transforms run along the last two axes of p windows,
    so one call serves a family of inputs confined to one box.  A 2-D
    block is a stack of one.

    The four transforms of an apply run in place on one complex
    workspace per plan and per thread, which grows to the largest
    stack of windows that thread has served and is reused by every
    smaller one.  It lives as long as the plan and the thread.  The
    stacks of the mu S operator (``beltrami._MuS.stack_limit``) keep p
    times the window within 16 next_fast_len(2n - 1)^2 bytes, the size
    of one full-box window (1 MiB at n = 128, 16 MiB at n = 512).  Every
    apply returns a fresh array; no view of the workspace reaches a
    caller.
    """

    def __init__(self, grid: Grid, padding_factor: int = 2):
        if not isinstance(padding_factor, (int, np.integer)) or padding_factor < 1:
            raise ValueError(f"padding_factor must be an integer >= 1, got {padding_factor}")
        self.grid = grid
        self.padding_factor = int(padding_factor)
        self.n_padded = self.padding_factor * grid.n
        self.multiplier_s, self.multiplier_s_star, self.multiplier_t = _multipliers(grid, self.padding_factor)
        # each thread's FFT workspace, grown to the largest window served
        self._local = threading.local()

    def apply(
        self,
        values: np.ndarray,
        table: np.ndarray,
        rows: slice | None = None,
        cols: slice | None = None,
        at: tuple[slice, slice] | None = None,
    ) -> np.ndarray:
        """Zero-pad, multiply in frequency, truncate back.

        ``rows`` and ``cols`` select the output box O to compute.
        Callers that multiply the result by a field pass that field's
        nonzero box.

        Full form (``at`` is None): ``values`` is the n x n field and the
        result is n x n, zero outside O.  The input's nonzero box is
        found by a scan, and the box is then applied in block form, at
        every padding factor: at padding 1 too, only O is computed.

        Block form: ``values`` is the block of the input at the
        (rows, cols) box ``at``, the input being zero elsewhere, and the
        result is the block of the output on O alone.  No n x n array is
        built or scanned, so an iteration confined to one box stays
        box-sized; at padding 1 it is the periodic convolution.  A stack
        of blocks at that box, shape (p, |at rows|, |at cols|), gives the
        stack of their output blocks, shape (p, |rows|, |cols|).
        """
        for which, own in enumerate((self.multiplier_s, self.multiplier_s_star, self.multiplier_t)):
            if table is own:
                break
        else:
            raise ValueError("table must be one of the plan's multiplier tables")
        n = self.grid.n
        out_r, out_c = _contiguous(n, rows, "rows"), _contiguous(n, cols, "cols")
        if at is not None:
            in_r, in_c = _contiguous(n, at[0], "at rows"), _contiguous(n, at[1], "at cols")
            shape = (in_r.stop - in_r.start, in_c.stop - in_c.start)
            if values.ndim not in (2, 3) or values.shape[-2:] != shape:
                raise ValueError(f"block of shape {values.shape} does not fill the box {at}")
            return self._apply_block(values, which, in_r, in_c, out_r, out_c)
        in_r, in_c = _nonzero_box(values)
        out = np.zeros((n, n), dtype=complex)
        out[out_r, out_c] = self._apply_block(values[in_r, in_c], which, in_r, in_c, out_r, out_c)
        return out

    def _apply_block(self, block, which, in_r, in_c, out_r, out_c) -> np.ndarray:
        """The output block on out_r x out_c of the input block at in_r x in_c,
        for each block of a (p, rows, cols) stack; a 2-D block is a stack of one."""
        if block.ndim == 2:
            return self._apply_block(block[None], which, in_r, in_c, out_r, out_c)[0]
        p = block.shape[0]
        box = (in_r, in_c, out_r, out_c)
        if p == 0 or any(s.start == s.stop for s in box):
            return np.zeros((p, out_r.stop - out_r.start, out_c.stop - out_c.start), dtype=complex)
        window = _window(self.grid, self.padding_factor, which, *((s.start, s.stop) for s in box))
        m_rows, m_cols = window.shape
        size = p * m_rows * m_cols
        buffer = getattr(self._local, "buffer", None)
        if buffer is None or buffer.size < size:
            buffer = self._local.buffer = np.empty(size, dtype=complex)
        ws = buffer[:size].reshape(p, m_rows, m_cols)
        # The strided column transforms run only on the input columns,
        # before the zero columns are padded in, and on the output
        # columns, after the row inverse; output cell o sits at
        # o - out.start + |I| - 1 of the convolution on each axis.
        i_rows, i_cols = block.shape[1:]
        r0, c0 = i_rows - 1, i_cols - 1
        ws[:, :i_rows, :i_cols] = block
        ws[:, i_rows:, :i_cols] = 0.0
        ws[:, :, i_cols:] = 0.0
        _transform_in_place(scipy.fft.fft, ws[:, :, :i_cols], axis=1)
        _transform_in_place(scipy.fft.fft, ws, axis=2)
        ws *= window
        _transform_in_place(scipy.fft.ifft, ws, axis=2)
        band = ws[:, :, c0 : c0 + out_c.stop - out_c.start]
        _transform_in_place(scipy.fft.ifft, band, axis=1)
        return band[:, r0 : r0 + out_r.stop - out_r.start].copy()


def _transform_in_place(transform, view: np.ndarray, axis: int) -> None:
    """Overwrite ``view`` with its 1-D ``transform`` along ``axis``.

    scipy may ignore ``overwrite_x`` and return a new array; only then is
    the result copied back.  Assigning a result that already fills
    ``view``'s memory is not a no-op: numpy sees the overlap and copies
    through a temporary, at twice the cost of a plain copy.
    """
    result = transform(view, axis=axis, overwrite_x=True)
    if not np.may_share_memory(result, view):
        view[...] = result


def _contiguous(n: int, span: slice | None, name: str) -> slice:
    """``span`` of range(n) as a unit-step slice with start <= stop."""
    r = range(n) if span is None else range(n)[span]
    if r.step != 1:
        raise ValueError(f"{name} must be a contiguous slice")
    return slice(r.start, max(r.start, r.stop))


def _nonzero_box(values: np.ndarray) -> tuple[slice, slice]:
    """Smallest (rows, cols) box holding every nonzero entry of ``values``."""
    spans = []
    for axis in (1, 0):
        idx = np.flatnonzero(np.any(values, axis=axis))
        spans.append(slice(int(idx[0]), int(idx[-1]) + 1) if idx.size else slice(0, 0))
    return spans[0], spans[1]


def _ritz_top(d: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """Top eigenvalue of the symmetric tridiagonal T with finite diagonal
    ``d`` and off-diagonal ``e``, and the last component of its unit
    eigenvector.

    LAPACK's ``dstebz`` (bisection for eigenvalue k of k, tolerance 0,
    block order) and ``dstein`` (inverse iteration) are called with the
    arguments ``scipy.linalg.eigh_tridiagonal(d, e, select="i",
    select_range=(k - 1, k - 1))`` passes them, so the pair is that
    call's bit for bit without its per-call overhead.  As there, a
    nonzero ``info`` raises ``LinAlgError`` and a 1 x 1 T gives (d[0], 1)
    without LAPACK.
    """
    k = d.size
    if k == 1:
        return float(d[0]), 1.0
    m, top, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, k, k, 0.0, "B")
    if info != 0 or m != 1:
        raise np.linalg.LinAlgError(f"dstebz found {m} eigenvalues (info={info})")
    vec, info = dstein(d, e, top[:1], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein did not converge (info={info})")
    return float(top[0]), float(vec[-1, 0])


def _lanczos_top(
    apply, inner, start: np.ndarray, tol: float, max_iter: int
) -> tuple[list[float], float]:
    """Top eigenvalue of a self-adjoint positive operator by Lanczos (1950).

    ``apply(v)`` returns the operator's image of ``v`` (A*A v, when the
    top singular value of A is wanted) as a fresh array, which the
    iteration then updates in place, and ``inner(u, v)``,
    conjugate-linear in ``u``, is the inner product in which the
    operator is self-adjoint.  The plain three-term recurrence
    keeps three vectors (v_prev, v, w) and no basis: without
    reorthogonalization the extreme Ritz value still converges reliably
    (Paige 1976, 1980).

    Step k takes the top eigenpair (theta_k, s_k) of the k x k
    tridiagonal T_k by bisection and inverse iteration (``_ritz_top``:
    LAPACK's ``dstebz`` and ``dstein``), which cost O(k) where a dense
    eigensolver costs O(k^3).  The pair is bit for bit that of
    ``scipy.linalg.eigh_tridiagonal(select="i")``, and that call's checks
    are kept: a non-finite alpha or beta raises ``ValueError``, a nonzero
    LAPACK ``info`` raises ``LinAlgError``, and T_1 gives (alpha_1, 1).
    A ``max_iter`` below 1 or a start vector of zero or non-finite norm
    raises ``ValueError`` before the first step.  The iteration stops
    once the relative Ritz residual beta_k |s_k[-1]| / theta_k, which equals
    ||A*A y - theta_k y|| / theta_k for the Ritz vector y, is at most
    ``tol``.  With ``tol = 0`` it runs exactly ``max_iter`` steps unless
    beta_k = 0 (an exact invariant subspace) ends it earlier.

    Returns
    -------
    (history, residual) : (list[float], float)
        theta_k after each step, nondecreasing by interlacing:
        ``history[-1]`` is the estimate and ``len(history)`` the step
        count.  ``residual`` is the relative Ritz residual of the last step.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    norm_sq = inner(start, start).real
    if not (np.isfinite(norm_sq) and norm_sq > 0.0):
        raise ValueError("Lanczos start vector must have a finite nonzero norm")
    v = start / np.sqrt(norm_sq)
    v_prev = None
    alphas = np.empty(max_iter)
    betas = np.empty(max_iter)
    history: list[float] = []
    residual = np.inf
    for k in range(1, max_iter + 1):
        w = apply(v)
        if v_prev is not None:
            w -= betas[k - 2] * v_prev
        alpha = float(inner(v, w).real)
        w -= alpha * v
        beta = float(np.sqrt(inner(w, w).real))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValueError(f"Lanczos step {k} gave a non-finite alpha or beta")
        alphas[k - 1] = alpha
        theta, last = _ritz_top(alphas[:k], betas[: k - 1])
        history.append(theta)
        if theta > 0:
            residual = beta * abs(last) / theta
        else:
            residual = 0.0 if beta == 0.0 else np.inf
        if beta == 0.0 or (tol > 0 and residual <= tol):
            break
        betas[k - 1] = beta
        # numpy divides a complex array by a real scalar as a product with
        # its reciprocal, so this is w / beta bit for bit, without the
        # complex division loop or a new array
        w *= 1.0 / beta
        v_prev, v = v, w
    return history, float(residual)


def _check_plan(plan: SpectralPlan, f: ComplexField) -> None:
    if f.grid != plan.grid:
        raise ValueError("field grid does not match plan grid")


def beurling(plan: SpectralPlan, f: ComplexField) -> ComplexField:
    """Beurling transform Sf via the multiplier xi_bar/xi."""
    _check_plan(plan, f)
    return ComplexField(f.grid, plan.apply(f.values, plan.multiplier_s))


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
    mask = np.abs(f.values) > 0
    src = f.grid.points()[mask]
    val = f.values[mask]
    h = f.grid.spacing
    area = f.grid.cell_area()
    scale = -area / np.pi
    near_box = 2.0 * h
    grad_d = grad_db = None

    def block_sum(diff):
        nonlocal grad_d, grad_db
        nearmask = (np.abs(diff.real) < near_box) & (np.abs(diff.imag) < near_box)
        with np.errstate(divide="ignore", invalid="ignore"):
            kern = 1.0 / diff
        kern[nearmask] = 0.0
        acc = scale * (kern @ val)
        if nearmask.any():
            if grad_d is None:
                fx = _derivative_fd(f.values, h, axis=0, order=2)
                fy = _derivative_fd(f.values, h, axis=1, order=2)
                grad_d = (0.5 * (fx - 1j * fy))[mask]
                grad_db = (0.5 * (fx + 1j * fy))[mask]
            rows, cols = np.nonzero(nearmask)
            zeta = -diff[rows, cols]
            j0, i1bar = _near_cell_integrals(zeta, h)
            i1 = zeta * j0 - area / np.pi
            contrib = val[cols] * j0 + grad_d[cols] * i1 + grad_db[cols] * i1bar
            acc += np.bincount(rows, weights=contrib.real, minlength=acc.size)
            acc += 1j * np.bincount(rows, weights=contrib.imag, minlength=acc.size)
        return acc

    return _chunked_kernel_sum(points.ravel(), src, block_sum).reshape(points.shape)


def _chunked_kernel_sum(targets: np.ndarray, sources: np.ndarray, block_sum) -> np.ndarray:
    """Direct kernel sums: ``block_sum(sources[None, :] - targets[rows, None])``
    gives one value per target, over the row blocks of ``_row_blocks``."""
    out = np.zeros(targets.size, dtype=complex)
    if sources.size:
        for rows in _row_blocks(targets.size, sources.size, 32):
            out[rows] = block_sum(sources[None, :] - targets[rows, None])
    return out


# bytes of temporaries per block of a pairwise sweep
_BLOCK_BYTES = 1 << 20


def _row_blocks(count: int, width: int, entry_bytes: int):
    """Slices of range(count), the rows of a pairwise sweep over ``width``
    columns, so that a block's temporaries, about ``entry_bytes`` per
    entry, stay near ``_BLOCK_BYTES``; every block has at least one row."""
    step = max(1, _BLOCK_BYTES // (entry_bytes * width))
    for first in range(0, count, step):
        yield slice(first, min(first + step, count))


# Antisymmetric centered first-derivative weights for offsets 1..p at
# order 2p: order 6 for dbar_fd/d_fd, order 2 for the near-field
# gradients of cauchy_at_points.
_FD_WEIGHTS = {
    2: (0.5,),
    6: (3.0 / 4.0, -3.0 / 20.0, 1.0 / 60.0),
}


def _derivative_fd(values: np.ndarray, spacing: float, axis: int, order: int = 6) -> np.ndarray:
    """Centered periodic finite difference along one axis."""
    out = np.zeros_like(values, dtype=complex)
    for s, w in enumerate(_FD_WEIGHTS[order], start=1):
        out += w * (np.roll(values, -s, axis=axis) - np.roll(values, s, axis=axis))
    return out / spacing


def _fd_partials(f: ComplexField) -> tuple[np.ndarray, np.ndarray]:
    """Periodic order-6 finite-difference partials (d/dx, d/dy) of a field."""
    dx = _derivative_fd(f.values, f.grid.spacing, axis=0)
    dy = _derivative_fd(f.values, f.grid.spacing, axis=1)
    return dx, dy


def dbar_fd(f: ComplexField) -> ComplexField:
    """Discrete dbar = (d/dx + i d/dy)/2, order 6, with periodic wrap."""
    dx, dy = _fd_partials(f)
    return ComplexField(f.grid, 0.5 * (dx + 1j * dy))


def d_fd(f: ComplexField) -> ComplexField:
    """Discrete d = (d/dx - i d/dy)/2, order 6, with periodic wrap."""
    dx, dy = _fd_partials(f)
    return ComplexField(f.grid, 0.5 * (dx - 1j * dy))


class LineFunction:
    """Uniform complex samples on [-X, X).

    Sample points are x_i = -X + i*d with d = 2X/m, the periodic
    convention used by the line Fourier multipliers.

    Parameters
    ----------
    half_width : float
        Finite X > 0.
    values : ndarray, shape (m,)
    """

    def __init__(self, half_width: float, values: np.ndarray):
        _check_half_width(half_width)
        values = np.asarray(values, dtype=complex)
        if values.ndim != 1 or values.size < 16:
            raise ValueError("values must be a 1-D array with at least 16 samples")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("line values must be finite")
        self.half_width = float(half_width)
        self.values = values.copy()
        self.values.setflags(write=False)
        self.spacing = 2.0 * self.half_width / values.size

    @property
    def x(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.values.size)


def line_sample(func, half_width: float, samples: int) -> LineFunction:
    """Sample a callable on the uniform line grid."""
    _check_half_width(half_width)
    x = -half_width + (2.0 * half_width / samples) * np.arange(samples)
    return LineFunction(half_width, np.asarray(func(x), dtype=complex))


def _line_kernel_sum(f: LineFunction, eval_points: np.ndarray, power: int) -> np.ndarray:
    """Trapezoid quadrature of (1/2 pi i) int f(t)/(t - z)^power dt, in chunks.

    Raises
    ------
    ValueError
        If any evaluation point has |Im z| < one line spacing.
    """
    pts = np.asarray(eval_points, dtype=complex)
    if np.any(np.abs(pts.imag) < f.spacing):
        raise ValueError("evaluation too close to the line: need |Im z| >= spacing")
    nz = np.abs(f.values) > 0
    vs = f.values[nz]
    out = _chunked_kernel_sum(pts.ravel(), f.x[nz], lambda diff: (diff**-power) @ vs)
    return (f.spacing / (2j * np.pi) * out).reshape(pts.shape)


def cauchy_line_extension(f: LineFunction, eval_points: np.ndarray) -> np.ndarray:
    """Cauchy integral (1/2 pi i) int f(t)/(t - z) dt off the real axis.

    Trapezoid quadrature on the sample grid; spectrally accurate for
    smooth decaying data at points separated from the axis.

    Raises
    ------
    ValueError
        If any evaluation point has |Im z| < one line spacing.
    """
    return _line_kernel_sum(f, eval_points, 1)


def cauchy_line_derivative(f: LineFunction, eval_points: np.ndarray) -> np.ndarray:
    """Derivative of the holomorphic extension, (1/2 pi i) int f(t)/(t - z)^2 dt.

    This is the ordinary derivative off the axis (no distributional
    term).  Same quadrature and distance requirement as
    :func:`cauchy_line_extension`.
    """
    return _line_kernel_sum(f, eval_points, 2)


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


def dq_kernel_transform(h_step: float, freqs: np.ndarray) -> np.ndarray:
    """Fourier transform of K_h(x) = (1/h) K(x/h), K(x) = 2 log|(1+x)/x|,
    at the frequencies ``freqs``, as a complex array of their shape.

    The transform of log|x| is -1/(2|u|) at u != 0 (Gel'fand & Shilov,
    *Generalized Functions* I), and the shift by 1 multiplies it by
    e^{2 pi i u}, so hat K(u) = (1 - e^{2 pi i u})/|u|, evaluated here
    in the cancellation-free form -2i sin(pi u) e^{i pi u}/|u| at
    u = h_step * xi (the dilation rule hat(K_h)(xi) = hat(K)(h xi)).

    Raises
    ------
    ValueError
        If h_step is not positive, some h_step * xi is 0 (the transform
        has no limit there), or h_step or some h_step * xi is not finite.
    """
    if h_step <= 0:
        raise ValueError("h_step must be positive")
    with np.errstate(over="ignore", invalid="ignore"):
        u = h_step * np.asarray(freqs, dtype=float)
    if np.any(u == 0.0):
        raise ValueError("frequencies must be nonzero")
    if not (math.isfinite(h_step) and np.all(np.isfinite(u))):
        raise ValueError("h_step and every h_step * freq must be finite")
    return -2j * np.sin(np.pi * u) * np.exp(1j * np.pi * u) / np.abs(u)
