"""Measure diagnostics: Carleson norms, the half-plane kernel row bound,
and the rectifiability energy of a dbar field.

The Carleson norm of a nonnegative density nu is the supremum of
nu(B(x0, r))/r over a finite family of balls: centers on the real axis
and dyadic radii.  Ball masses are computed from per-row prefix sums so
that re-evaluating the reported witness goes through the identical
arithmetic as the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import BeltramiCoefficient, ComplexField, Grid, norm

__all__ = [
    "CarlesonReport",
    "carleson_density",
    "carleson_norm",
    "ball_mass",
    "lemma1_row_integral",
    "rectifiability_energy",
]


@dataclass
class CarlesonReport:
    """Result of a ball-family sweep.

    witness_center / witness_radius attain the reported norm; the family
    dict records which centers and radii were swept.
    """

    norm: float
    witness_center: complex
    witness_radius: float
    witness_mass: float
    family: dict

    def to_json_dict(self) -> dict:
        return {
            "norm": self.norm,
            "witness": {
                "center_re": float(self.witness_center.real),
                "center_im": float(self.witness_center.imag),
                "radius": self.witness_radius,
                "mass": self.witness_mass,
            },
            "family": dict(self.family),
        }


def carleson_density(mu: BeltramiCoefficient) -> ComplexField:
    """Pointwise density |mu|^2 / |Im z| on the staggered grid.

    Finite everywhere because the grid never touches the real axis.
    """
    grid = mu.grid
    abs_y = np.abs(grid.y)[None, :]
    values = (np.abs(mu.field.values) ** 2 / abs_y).astype(complex)
    return ComplexField(grid, values, support_radius=mu.support_radius)


def _require_density(nu: ComplexField) -> np.ndarray:
    if np.any(nu.values.imag != 0.0) or np.any(nu.values.real < 0.0):
        raise ValueError("density must be real and nonnegative")
    return nu.values.real


def _prefix(nu: ComplexField) -> np.ndarray:
    """Cumulative cell masses along x: P[j, k] = sum of the first j cells
    of row k, each cell weighted by its area."""
    weights = _require_density(nu) * nu.grid.cell_area()
    P = np.zeros((nu.grid.n + 1, nu.grid.n))
    np.cumsum(weights, axis=0, out=P[1:])
    return P


def _masses(P: np.ndarray, x: np.ndarray, y: np.ndarray,
            centers: np.ndarray, radius: float) -> np.ndarray:
    """nu-mass of the closed balls B(centers[i], radius), one per center.

    Chords, searches and prefix differences are computed only on the
    span of rows from the first to the last that carries mass
    (P[-1, k] != 0), and written into zeros of shape (centers, n) before
    the row sum.  A massless row contributes 0.0 to every ball either
    way, so the sum sees the operands of the sweep over every row at the
    same positions and its result is bit-identical.  A span is written
    with one strided copy; scattering an index list of rows costs more
    than the rows it skips when nearly every row carries mass.
    """
    with_mass = np.flatnonzero(P[-1])
    rows = slice(with_mass[0], with_mass[-1] + 1) if with_mass.size else slice(0, 0)
    cols = np.arange(y.size)[rows]
    cx = centers.real[:, None]
    cy = centers.imag[:, None]
    rhs = radius * radius - (y[rows][None, :] - cy) ** 2
    inside = rhs >= 0.0
    half = np.sqrt(np.where(inside, rhs, 0.0))
    lo = np.searchsorted(x, cx - half, side="left")
    hi = np.searchsorted(x, cx + half, side="right")
    per_row = np.zeros((centers.size, y.size))
    per_row[:, rows] = np.where(inside, P[hi, cols] - P[lo, cols], 0.0)
    return per_row.sum(axis=1)


def ball_mass(nu: ComplexField, center: complex, radius: float) -> float:
    """Quadrature of nu over the closed ball B(center, radius).

    Shares its arithmetic with the carleson_norm sweep, so a witness
    reported there reproduces its mass exactly here.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    grid = nu.grid
    P = _prefix(nu)
    return float(_masses(P, grid.x, grid.y, np.array([complex(center)]), float(radius))[0])


def _dyadic_radii(grid: Grid) -> np.ndarray:
    """Radii 2h, 4h, ..., L; the chain ends exactly at L because
    L / (2h) = n/4 is a power of two."""
    count = int(round(np.log2(grid.half_width / (2.0 * grid.spacing)))) + 1
    return 2.0 * grid.spacing * 2.0 ** np.arange(count)


def carleson_norm(nu: ComplexField) -> CarlesonReport:
    """Sup of nu(B(x0, r))/r over a finite family of balls.

    Parameters
    ----------
    nu : ComplexField
        Real, nonnegative density on the grid.

    The centers are the grid columns on the real axis and the radii the
    dyadic chain 2h, 4h, ..., L.  Each sweep skips the grid rows below
    and above those on which nu has mass; the masses, the norm and the
    witness are bit-identical to those of a sweep over every row.

    The finite family undershoots the continuum supremum by at most a
    bounded factor (radius dyadic gap), which downstream comparisons
    absorb into equivalence brackets.
    """
    grid = nu.grid
    P = _prefix(nu)
    radii = _dyadic_radii(grid)
    centers = grid.x.astype(complex)
    family = {
        "geometry": "line",
        "center_count": int(centers.size),
        "center_spacing": grid.spacing,
        "radii": [float(r) for r in radii],
    }

    best = -1.0
    best_center = complex(centers[0])
    best_radius = float(radii[0])
    best_mass = 0.0
    for r in radii:
        masses = _masses(P, grid.x, grid.y, centers, float(r))
        ratios = masses / r
        k = int(np.argmax(ratios))
        if ratios[k] > best:
            best = float(ratios[k])
            best_center = complex(centers[k])
            best_radius = float(r)
            best_mass = float(masses[k])
    return CarlesonReport(
        norm=max(best, 0.0),
        witness_center=best_center,
        witness_radius=best_radius,
        witness_mass=best_mass,
        family=family,
    )


def lemma1_row_integral(z: complex, grid: Grid) -> float:
    """Quadrature of |Im z|^{1/2} |Im w|^{1/2} / |w - z|^3 over the
    lower-half cells of the grid, for z in the upper half-plane.

    The continuum integral over the full lower half-plane is bounded by
    4*pi uniformly in z; truncation to the grid only decreases it.
    """
    z = complex(z)
    if z.imag < grid.stagger:
        raise ValueError("z must satisfy Im z >= h/2")
    neg = grid.y < 0
    y = grid.y[neg][None, :]
    x = grid.x[:, None]
    w = x + 1j * y
    kernel = np.sqrt(z.imag) * np.sqrt(-y) / np.abs(w - z) ** 3
    return float(grid.cell_area() * kernel.sum())


def rectifiability_energy(h: ComplexField) -> float:
    """Weighted energy ||h||^2 with weight 1/|Im z|; finiteness of the
    continuum analogue forces rectifiability of the image curve."""
    return norm(h, "inv_abs_y") ** 2
