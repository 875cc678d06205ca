"""Discretized complex plane: grids, complex fields, quadrature, norms.

The plane is modelled by a uniform square lattice on [-L, L]^2 with a
half-cell vertical stagger, so no sample point lies on the real axis and
the weight 1/|Im z| is finite everywhere.  All quadrature is the midpoint
rule; convergence is tested, not assumed.
"""

from __future__ import annotations

import math
import struct
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "Grid",
    "ComplexField",
    "BeltramiCoefficient",
    "integrate",
    "norm",
    "indicator_ball",
    "bandlimited_noise",
    "write_field",
    "read_field",
]

_HEADER = struct.Struct("<dqd")  # half_width, n, stagger, little-endian
_TINY_OVER_EPS = np.finfo(float).tiny / np.finfo(float).eps


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class Grid:
    """Uniform staggered lattice on the square [-L, L]^2.

    Sample points are cell centers,

        z_jk = (-L + (j + 1/2) h) + i (-L + (k + 1/2) h),   h = 2L/n,

    with axis 0 indexing x and axis 1 indexing y.  The half-cell offset
    keeps every sample at distance >= h/2 from the real axis.

    Parameters
    ----------
    half_width : float
        Finite L > 0; the domain is [-L, L]^2.
    n : int
        Samples per axis; must be a power of two, n >= 16.
    """

    def __init__(self, half_width: float, n: int):
        if not (np.isfinite(half_width) and half_width > 0):
            raise ValueError(f"half_width must be finite and positive, got {half_width}")
        if not isinstance(n, (int, np.integer)) or not _is_power_of_two(int(n)) or n < 16:
            raise ValueError(f"n must be a power of two >= 16, got {n}")
        self.half_width = float(half_width)
        self.n = int(n)
        self.spacing = 2.0 * self.half_width / self.n
        # quadrature weights must be normal doubles: an area that
        # overflows or underflows turns every norm into inf, nan or 0
        width = 2.0 * self.half_width
        for name, area in (("cell area", self.spacing * self.spacing), ("domain area", width * width)):
            if not (np.isfinite(area) and area >= np.finfo(float).tiny):
                raise ValueError(f"half_width {half_width} gives a {name} of {area}, not a normal double")
        # built from its upper half, so that axis[::-1] == -axis exactly:
        # -L + (k + 1/2) h rounds differently on the two sides at an extreme L
        upper = (np.arange(self.n // 2) + 0.5) * self.spacing
        axis = np.concatenate([-upper[::-1], upper])
        axis.setflags(write=False)
        self.axis = axis
        self.stagger = 0.5 * self.spacing

    @property
    def x(self) -> np.ndarray:
        """x coordinates along axis 0 (shape (n,))."""
        return self.axis

    @property
    def y(self) -> np.ndarray:
        """y coordinates along axis 1 (shape (n,))."""
        return self.axis

    def points(self) -> np.ndarray:
        """Complex sample points z_jk as an (n, n) array."""
        return self.axis[:, None] + 1j * self.axis[None, :]

    def cell_area(self) -> float:
        return self.spacing * self.spacing

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Grid)
            and other.half_width == self.half_width
            and other.n == self.n
        )

    def __hash__(self) -> int:
        return hash((self.half_width, self.n))

    def __repr__(self) -> str:
        return f"Grid(half_width={self.half_width}, n={self.n})"


class ComplexField:
    """Complex samples on a :class:`Grid`, immutable after construction.

    Every field is compactly supported: its samples fill the n x n box
    and it is zero outside.

    Parameters
    ----------
    grid : Grid
    values : ndarray
        Complex array of shape (n, n); values[j, k] is the sample at
        z_jk.  Copied and frozen.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.n, grid.n):
            raise ValueError(f"values shape {values.shape} does not match grid n={grid.n}")
        if not np.all(np.isfinite(values.view(float))):
            raise ValueError("field values must be finite")
        self.grid = grid
        self.values = values.copy()
        self.values.setflags(write=False)

    @cached_property
    def support_radius(self) -> float:
        """Radius of the origin-centred disc that holds every nonzero sample,
        padded by one cell: the largest |z_jk| over nonzero samples plus
        the grid spacing, or one spacing when every sample is zero."""
        nz = self.values != 0
        if not nz.any():
            return self.grid.spacing
        return float(np.abs(self.grid.points()[nz]).max()) + self.grid.spacing

    def with_values(self, values: np.ndarray) -> "ComplexField":
        """New field on the same grid."""
        return ComplexField(self.grid, values)

    def __repr__(self) -> str:
        return f"ComplexField(grid={self.grid!r})"


class BeltramiCoefficient:
    """A dilatation: a complex field with sup norm < 1.

    Parameters
    ----------
    field : ComplexField

    Attributes
    ----------
    sup_bound : float
        max |values|; construction rejects sup_bound >= 1.
    """

    def __init__(self, field: ComplexField):
        sup = float(np.abs(field.values).max())
        if sup >= 1.0:
            raise ValueError(f"dilatation sup norm {sup} must be < 1")
        self.field = field
        self.sup_bound = sup
        self.grid = field.grid

    @property
    def support_radius(self) -> float:
        """The field's support radius, :attr:`ComplexField.support_radius`."""
        return self.field.support_radius

    def scaled(self, t: float) -> "BeltramiCoefficient":
        """The dilatation t * mu; |t| * sup_bound must stay below 1."""
        return BeltramiCoefficient(self.field.with_values(t * self.field.values))

    def __repr__(self) -> str:
        return f"BeltramiCoefficient(sup_bound={self.sup_bound:.4g}, grid={self.grid!r})"


def integrate(f: ComplexField) -> complex:
    """Midpoint-rule integral of f over the grid square, h^2 * sum(values)."""
    return complex(f.grid.cell_area() * f.values.sum())


def _weight_values(grid: Grid, weight: str) -> np.ndarray | None:
    if weight == "unweighted":
        return None
    if weight == "inv_abs_y":
        return 1.0 / np.abs(grid.y)[None, :]
    raise ValueError(f"unknown weight {weight!r}")


def _root_sum_sq(values: np.ndarray, weight: np.ndarray | None = None) -> np.ndarray:
    """sqrt(sum |values|^2 weight) over the last two axes of a 2-D array,
    or of each member of a 3-D stack; a ``weight`` of None is 1.

    One pass keeps a sum that is finite and at least count * tiny / eps *
    max(1, max weight), so every term that can move it is normal.  Any
    other member (values of order 1/L at an extreme L) is summed again
    from its magnitudes over the largest one.
    """

    def weighted_squares(mag: np.ndarray) -> np.ndarray:
        np.square(mag, out=mag)
        if weight is not None:
            mag *= weight
        return mag

    stack = values[None] if values.ndim == 2 else values
    heaviest = 1.0 if weight is None else max(1.0, float(weight.max()))
    floor = stack.shape[1] * stack.shape[2] * _TINY_OVER_EPS * heaviest
    with np.errstate(over="ignore"):
        total = weighted_squares(np.abs(stack)).sum(axis=(1, 2))
    root = np.sqrt(total)
    for j, sum_sq in enumerate(total.tolist()):
        if sum_sq < floor or not math.isfinite(sum_sq):
            mag = np.abs(stack[j])
            largest = mag.max()
            if largest > 0.0:  # else every value is 0, and so is the root
                # a real quotient: complex division by a subnormal overflows
                mag /= largest
                root[j] = np.sqrt(weighted_squares(mag).sum()) * largest
    return root[0] if values.ndim == 2 else root


def norm(f: ComplexField, weight: str = "unweighted") -> float:
    """Weighted L^2 norm of a field, h * sqrt(sum |f|^2 w), safe from
    overflow and underflow at any half-width.

    Parameters
    ----------
    f : ComplexField
    weight : {'unweighted', 'inv_abs_y'}
        Weight w in (integral of |f|^2 w dm)^(1/2): the constant 1 or the
        singular weight 1/|Im z| (finite on the staggered lattice).

    Returns
    -------
    float
    """
    return float(f.grid.spacing * _root_sum_sq(f.values, _weight_values(f.grid, weight)))


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1, exp-flat at both ends."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def indicator_ball(
    grid: Grid, center: complex, radius: float, mollify_width: float = 0.0
) -> ComplexField:
    """Indicator of the ball B(center, radius), optionally mollified.

    With ``mollify_width = 0`` the values are exactly 0 or 1.  Otherwise a
    smooth radial ramp of the given width replaces the jump: the field is
    1 at distance <= radius - mollify_width from the center and 0 outside
    the ball.

    Raises
    ------
    ValueError
        If the radius is not positive, the ball does not fit inside
        [-L, L]^2, or the ramp is wider than the radius; a NaN center,
        radius or width fails these tests too.
    """
    if not radius > 0:
        raise ValueError("radius must be positive")
    if not 0 <= mollify_width <= radius:
        raise ValueError("mollify_width must lie in [0, radius]")
    L = grid.half_width
    cx, cy = float(np.real(center)), float(np.imag(center))
    if not (abs(cx) + radius <= L and abs(cy) + radius <= L):
        raise ValueError(f"ball B({center}, {radius}) escapes the domain [-{L}, {L}]^2")
    # every cell off the ball's bounding box lies farther than radius
    # from the center, where both profiles are exactly 0
    rows, cols = (np.flatnonzero(np.abs(grid.axis - c) <= radius) for c in (cx, cy))
    values = np.zeros((grid.n, grid.n), dtype=complex)
    if rows.size and cols.size:
        box = (slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1))
        dist = np.abs(grid.axis[box[0], None] + 1j * grid.axis[None, box[1]] - center)
        if mollify_width == 0.0:
            values[box] = dist <= radius
        else:
            values[box] = _smooth_step((radius - dist) / mollify_width)
    return ComplexField(grid, values)


@lru_cache(maxsize=8)
def _outside_band(grid: Grid, cutoff: float) -> np.ndarray:
    """Read-only mask of the lattice frequencies with |xi| > cutoff / h,
    shared by every seed of :func:`bandlimited_noise` on one grid."""
    freq = np.fft.fftfreq(grid.n, d=grid.spacing)
    mask = np.hypot(freq[:, None], freq[None, :]) > cutoff / grid.spacing
    mask.setflags(write=False)
    return mask


def bandlimited_noise(grid: Grid, seed: int, cutoff: float = 0.25) -> ComplexField:
    """Deterministic mean-zero complex noise with compact Fourier support.

    Gaussian coefficients are drawn per seed on the full frequency
    lattice, truncated to |xi| <= cutoff / h (so ``cutoff = 1/2`` fills
    the lattice to the Nyquist frequency), the zero mode is removed, and
    the result is normalized to unit L^2 norm.

    Parameters
    ----------
    grid : Grid
    seed : int
        Seed for the generator; identical seeds give identical fields.
    cutoff : float
        Fraction of 1/h bounding the Fourier support, 0 < cutoff <= 1/2.
    """
    if not 0 < cutoff <= 0.5:
        raise ValueError("cutoff must lie in (0, 1/2]")
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    coeff[_outside_band(grid, cutoff)] = 0.0
    coeff[0, 0] = 0.0
    values = np.fft.ifft2(coeff)
    scale = grid.spacing * _root_sum_sq(values)
    if scale == 0.0:
        raise ValueError("cutoff too small: no modes survive")
    return ComplexField(grid, values / scale)


def write_field(f: ComplexField, path) -> None:
    """Write a field in the binary interchange format.

    Little-endian header (half_width: f64, n: i64, stagger: f64) followed
    by n*n interleaved re/im float64 pairs in row-major (x-major) order.
    """
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(f.grid.half_width, f.grid.n, f.grid.stagger))
        fh.write(f.values.astype("<c16", copy=False).tobytes())


def read_field(path) -> ComplexField:
    """Read a field written by :func:`write_field`.

    The format stores no support radius; the field derives it from its
    samples (:attr:`ComplexField.support_radius`).

    Raises
    ------
    ValueError
        On a corrupt or truncated file: a short header, a payload that
        does not hold n*n complex samples, a header the grid rejects, or
        a stagger that does not match the grid.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError("truncated field file: short header")
        half_width, n, stagger = _HEADER.unpack(header)
        data = fh.read()
    # checked before 16 n^2 is trusted, and before Grid sees n
    if n < 1 or len(data) != 16 * n * n:
        raise ValueError(
            f"corrupt field file: {len(data)} payload bytes do not hold {n}x{n} complex samples"
        )
    try:
        grid = Grid(half_width, int(n))
    except ValueError as exc:
        raise ValueError(f"corrupt field file: {exc}") from exc
    if abs(stagger - grid.stagger) > 1e-12 * grid.spacing:
        raise ValueError(
            f"corrupt field file: stagger {stagger} inconsistent with grid spacing {grid.spacing}"
        )
    # the interleaved re/im pairs are complex128 as stored, signed zeros included
    values = np.frombuffer(data, dtype="<c16").reshape(grid.n, grid.n)
    return ComplexField(grid, values)

