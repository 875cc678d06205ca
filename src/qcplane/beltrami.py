"""Resolution of (I - mu S) and the quasiconformal map rho = z + Th.

The Neumann series h = sum (mu S)^k Phi converges geometrically because
S is an isometry and the dilatation satisfies |mu| <= sup_bound < 1.
On top of the solver sit the diagnostics: the operator norm of mu S on
the weighted space L^2(dm/|y|) by Lanczos iteration, and the empirical
invertibility constant c1 measured over a probe family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft

from .field import BeltramiCoefficient, ComplexField, Grid, _root_sum_sq, bandlimited_noise, indicator_ball, norm
from .geometry import MapEvaluator
from .transforms import (
    LanczosRecord,
    LineFunction,
    SpectralPlan,
    _lanczos_top,
    _nonzero_box,
    cauchy_at_points,
    cauchy_line_derivative,
    cauchy_plane,
    line_sample,
)

__all__ = [
    "BeltramiCoefficient",
    "SolveReport",
    "NonConvergenceError",
    "plan_for",
    "neumann_solve",
    "solve_beltrami",
    "weighted_operator_norm",
    "inverse_weighted_bound",
    "default_probes",
    "solve_inhomogeneous",
]


class NonConvergenceError(RuntimeError):
    """A solve did not reach its tolerance within the iteration budget."""


@lru_cache(maxsize=8)
def plan_for(grid: Grid) -> SpectralPlan:
    """Shared padding-2 spectral plan for a grid, one of 8 in a thread-safe
    ``functools.lru_cache`` keyed on the grid; equal plans share their
    tables, kernels and windows however made (see :class:`SpectralPlan`).
    The periodic model is ``SpectralPlan(grid, 1)``.
    """
    return SpectralPlan(grid)


class _MuS:
    """mu S computed on mu's nonzero box B alone; the Neumann stack and
    the weighted norm each build one for their mu.

    mu S vanishes off B, so its products are taken straight onto B from
    the grid's cached padding-2 plan.  ``stack_limit`` is the most blocks
    at B that one stacked apply from B to itself may hold: as many of its
    windows as fill one full-box window of the n x n grid, and at least
    one, so a full-box mu gives stacks of one and the plan's workspace
    stays within one full-box window.  The weighted norm's sqrt|y| (a
    1 x n row) and |mu|^2/|y| on B are precomputed here.
    """

    def __init__(self, mu: BeltramiCoefficient):
        self.plan = plan_for(mu.grid)
        self.box = _nonzero_box(mu.field.values)
        self.mu_box = mu.field.values[self.box]
        extent = [scipy.fft.next_fast_len(max(1, 2 * (s.stop - s.start) - 1)) for s in self.box]
        self.stack_limit = max(1, scipy.fft.next_fast_len(2 * mu.grid.n - 1) ** 2 // (extent[0] * extent[1]))
        abs_y = np.abs(mu.grid.y)
        self.sqrt_y = np.sqrt(abs_y)[None, :]
        self.weight_box = (self.mu_box.real**2 + self.mu_box.imag**2) / abs_y[None, self.box[1]]

    def apply(self, blocks: np.ndarray, at: tuple[slice, slice]) -> np.ndarray:
        """mu S, on B, of a block or a (p, rows, cols) stack of blocks at the box ``at``."""
        return self.mu_box * self.plan.apply(blocks, self.plan.multiplier_s, *self.box, at=at)

    def gram(self, x: np.ndarray) -> np.ndarray:
        """sqrt|y| S*(|mu|^2/|y| S(sqrt|y| x)) for an n x n ``x``: S from the
        grid to B, then S* from B back to the grid."""
        plan = self.plan
        s_box = plan.apply(self.sqrt_y * x, plan.multiplier_s, *self.box, at=(slice(None), slice(None)))
        out = plan.apply(self.weight_box * s_box, plan.multiplier_s_star, at=self.box)
        out *= self.sqrt_y
        return out


def _field_summary(f: ComplexField) -> dict:
    return {
        "grid": {"half_width": f.grid.half_width, "n": f.grid.n},
        "support_radius": f.support_radius,
        "norm_l2": norm(f),
        "norm_weighted": norm(f, "inv_abs_y"),
    }


@dataclass
class SolveReport:
    """Outcome of a Neumann solve of (I - mu S) h = Phi.

    residual_history holds the unweighted L^2 residuals
    ||(I - mu S) h_k - Phi||_2, one entry per iteration.
    """

    solution: ComplexField
    residual_history: list[float]
    converged: bool
    tolerance: float

    @property
    def iterations(self) -> int:
        """Iterations run, one per residual."""
        return len(self.residual_history)

    def to_json_dict(self) -> dict:
        return {
            "solution": _field_summary(self.solution),
            "residual_history": list(self.residual_history),
            "iterations": self.iterations,
            "converged": bool(self.converged),
            "tolerance": self.tolerance,
        }


@dataclass
class ProbeRecord:
    """The probe estimate of c1 and the Neumann solves behind it."""

    probe_c1_estimate: float
    iteration_count: int
    residual: float
    converged: bool
    probe_ratios: list[float]


def neumann_solve(
    mu: BeltramiCoefficient,
    phi: ComplexField,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> SolveReport:
    """Solve (I - mu S) h = Phi by the fixed-point iteration h <- Phi + mu S h.

    Stops when the unweighted residual ||(I - mu S) h - Phi||_2 drops to
    ``tol * ||Phi||_2``; the residual equals the step size of the
    iteration, so the history doubles as a contraction-ratio record.
    The stop is relative, so it does not move when Phi or the grid's
    half-width is rescaled, and a zero Phi stops after one step.
    Non-convergence is reported in the returned flag, never silently
    ignored.

    Parameters
    ----------
    mu : BeltramiCoefficient
    phi : ComplexField
        Right-hand side.
    tol : float
    max_iter : int
        At least 1.

    The products run on the grid's cached padding-2 plan.  This is the
    iteration :func:`inverse_weighted_bound` runs on a stack of
    right-hand sides, with a stack of one; each of its solves is this
    one's bit for bit.
    """
    return _neumann_stack(mu, [phi], [norm(phi)], tol, max_iter)[0]


def _neumann_stack(
    mu: BeltramiCoefficient,
    phis: list[ComplexField],
    phi_norms: list[float],
    tol: float,
    max_iter: int,
) -> list[SolveReport]:
    """:func:`neumann_solve` of each Phi, given ||Phi||_2, as one iteration.

    Each iterate is h_k = Phi + c_k with c_k = mu S h_{k-1}, which
    vanishes off mu's nonzero box B.  So the iteration runs on B alone:
    c_1 = mu S Phi, then c_k = c_1 + mu S c_{k-1}, and the step
    h_k - h_{k-1} = c_k - c_{k-1} is zero off B.  Every c lives on B, so
    the right-hand sides iterate together: each step is one apply to the
    stack of the unconverged c's, and a member leaves the stack at its
    own stop.  A stack holds at most the operator's ``_MuS.stack_limit``
    members, and larger families run in chunks, in order.  The sources
    mu S Phi are applied one by one, from each Phi's own box.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if any(phi.grid != mu.grid for phi in phis):
        raise ValueError("phi grid does not match mu grid")
    op = _MuS(mu)
    reports: list[SolveReport] = []
    for first in range(0, len(phis), op.stack_limit):
        chunk = phis[first : first + op.stack_limit]
        boxes = [_nonzero_box(phi.values) for phi in chunk]
        source = np.concatenate([op.apply(phi.values[box][None], box) for phi, box in zip(chunk, boxes)])
        stop = tol * np.array(phi_norms[first : first + op.stack_limit])
        members = np.arange(len(chunk))
        histories: list[list[float]] = [[] for _ in chunk]
        final = np.empty_like(source)  # each member's last c
        converged = np.zeros(len(chunk), dtype=bool)
        c = np.zeros_like(source)
        step = source
        for k in range(max_iter):
            if k:
                step = source + op.apply(c, op.box)
            residual = mu.grid.spacing * _root_sum_sq(step - c)
            for j, m in enumerate(members):
                histories[m].append(float(residual[j]))
            c = step
            done = residual <= stop
            if done.any():
                final[members[done]] = c[done]
                converged[members[done]] = True
                keep = ~done
                members, source, c, stop = members[keep], source[keep], c[keep], stop[keep]
                if not members.size:
                    break
        final[members] = c
        for m, phi in enumerate(chunk):
            h = phi.values.copy()
            h[op.box] += final[m]
            reports.append(SolveReport(ComplexField(mu.grid, h), histories[m], bool(converged[m]), tol))
    return reports


def solve_beltrami(
    mu: BeltramiCoefficient, tol: float = 1e-10, max_iter: int = 200
) -> MapEvaluator:
    """Construct the normalized quasiconformal map rho(z) = z + Th(z).

    h solves (I - mu S) h = mu; the evaluator computes Th at arbitrary
    points by direct free-space kernel quadrature over the nonzero
    samples of h, so rho(z) - z decays like 1/|z| beyond
    ``h.support_radius``.

    Raises
    ------
    NonConvergenceError
        If the Neumann iteration does not reach ``tol``.
    """
    report = neumann_solve(mu, mu.field, tol=tol, max_iter=max_iter)
    if not report.converged:
        raise NonConvergenceError(
            f"Neumann iteration stalled at residual {report.residual_history[-1]:.3e} "
            f"after {report.iterations} iterations"
        )
    h = report.solution

    def evaluate(z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return z + cauchy_at_points(h, z)

    return MapEvaluator(evaluate, provenance="solver", dbar_field=h, report=report)


def weighted_operator_norm(
    mu: BeltramiCoefficient,
    tol: float = 1e-6,
    max_iter: int = 80,
    seed: int = 0,
) -> LanczosRecord:
    """Norm estimate of A = mu S on L^2(dm/|y|) by Lanczos on A*A.

    The adjoint in the weighted inner product is
    A* g = |y| S*(conj(mu) g / |y|), so A*A is self-adjoint there.  The
    result is the record of :func:`qcplane.transforms._lanczos_top`, with
    its ``tol`` and ``max_iter``; ``tol = 0`` runs exactly ``max_iter``
    steps, which makes scaling comparisons deterministic.  The iteration
    holds three n x n vectors and starts from complex Gaussian noise
    drawn with ``seed``.

    Lanczos runs on x = v / sqrt|y|, in which the weighted inner product
    is the plain one up to the cell area, a constant that normalisation
    drops.  There A*A becomes x -> sqrt|y| S*(|mu|^2/|y| S(sqrt|y| x)),
    and the inner S is needed only on mu's nonzero box B: each step is
    one ``_MuS.gram``, S from the grid to B and S* from B back to the
    grid, with |mu|^2/|y| precomputed on B.  The tridiagonal matrices,
    hence the Ritz values and step counts, are those of the iteration in
    v up to rounding; the seeded noise is the start vector v.
    """
    n = mu.grid.n
    op = _MuS(mu)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _lanczos_top(op.gram, np.vdot, v / op.sqrt_y, tol, max_iter)


def default_probes(grid: Grid) -> list[ComplexField]:
    """Compactly supported probe family for invertibility measurements.

    Eight band-limited noise fields windowed to the disc of radius L/2
    plus four mollified balls at increasing heights: the ball heights
    sample the weight 1/|y| from near the axis to the far field.  Noise
    probe k is seeded with k.
    """
    L = grid.half_width
    window = indicator_ball(grid, 0.0, L / 2.0, mollify_width=L / 8.0)
    probes: list[ComplexField] = []
    for k in range(8):
        noise = bandlimited_noise(grid, seed=k, cutoff=0.25)
        probes.append(noise.with_values(noise.values * window.values))
    for height in np.linspace(0.1, 0.7, 4) * L:
        probes.append(indicator_ball(grid, 1j * height, L / 16.0, mollify_width=L / 64.0))
    return probes


def inverse_weighted_bound(
    mu: BeltramiCoefficient,
    probes: list[ComplexField] | None = None,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> ProbeRecord:
    """Empirical invertibility constant c1 of (I - mu S) in L^2(dm/|y|).

    For each probe Phi the solve h = (I - mu S)^{-1} Phi is performed
    and the ratio ||h||_w^2 / ||Phi||_w^2 recorded; the maximum over the
    probe family is the reported c1.  A finite family can only lower-
    bound the true constant, so the probe ratios ship with the estimate.
    The solves are :func:`neumann_solve`'s, run as one iteration over
    the stacked family, each probe stopping on its own residual.
    ``iteration_count`` sums the solves' steps; ``residual`` is the largest
    final residual over its ||Phi||_2, which each stop compares with ``tol``.

    Raises
    ------
    ValueError
        On an empty family, or on a zero probe, named by its index: the
        default family on a grid too coarse to hold one of its balls.
    """
    if probes is None:
        probes = default_probes(mu.grid)
    if not probes:
        raise ValueError("probe family must be nonempty")
    w_phis = [norm(phi, "inv_abs_y") for phi in probes]
    if 0.0 in w_phis:
        raise ValueError(f"probe {w_phis.index(0.0)} is zero")
    phi_norms = [norm(phi) for phi in probes]
    reports = _neumann_stack(mu, probes, phi_norms, tol, max_iter)
    ratios = [(norm(r.solution, "inv_abs_y") / w) ** 2 for r, w in zip(reports, w_phis)]
    return ProbeRecord(
        probe_c1_estimate=float(max(ratios)),
        iteration_count=sum(r.iterations for r in reports),
        residual=max(r.residual_history[-1] / n for r, n in zip(reports, phi_norms)),
        converged=all(r.converged for r in reports),
        probe_ratios=[float(r) for r in ratios],
    )


def solve_inhomogeneous(
    mu: BeltramiCoefficient, f: LineFunction, tol: float = 1e-10, max_iter: int = 200
) -> tuple[ComplexField, LineFunction]:
    """Solve dbar(H) - mu d(H) = mu C'_f and restrict H to the real axis.

    C'_f is the derivative of the holomorphic extension of f off R (no
    distributional term), evaluated on the support of mu.  Then
    dbar(H) = (I - mu S)^{-1}(mu C'_f) is compactly supported, H is its
    plane Cauchy transform, and the boundary restriction is computed by
    direct free-space quadrature on the two staggered rows adjacent to
    R, averaged: H is continuous across the axis, so the average
    converges to the boundary value.

    Returns
    -------
    (H, boundary) : (ComplexField, LineFunction)
        H in the mean-zero spectral gauge on the grid; boundary sampled
        on the grid columns.

    Raises
    ------
    NonConvergenceError
        Propagated solver failure.
    """
    grid = mu.grid
    if f.spacing > grid.stagger:
        raise ValueError(
            "line sampling too coarse: need spacing <= grid stagger to evaluate C'_f"
        )
    mask = np.abs(mu.field.values) > 0
    rhs_values = np.zeros((grid.n, grid.n), dtype=complex)
    if mask.any():
        pts = grid.points()[mask]
        rhs_values[mask] = mu.field.values[mask] * cauchy_line_derivative(f, pts)
    rhs = ComplexField(grid, rhs_values)
    report = neumann_solve(mu, rhs, tol=tol, max_iter=max_iter)
    if not report.converged:
        raise NonConvergenceError(
            f"inhomogeneous solve stalled at residual {report.residual_history[-1]:.3e}"
        )
    g = report.solution
    H = cauchy_plane(plan_for(grid), g)
    boundary = line_sample(
        lambda x: 0.5 * (cauchy_at_points(g, x + 1j * grid.stagger) + cauchy_at_points(g, x - 1j * grid.stagger)),
        grid.half_width,
        grid.n,
    )
    return H, boundary
