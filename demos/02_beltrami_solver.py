"""Solving the Beltrami equation for a compactly supported dilatation.

The map is rho(z) = z + Th(z) where h solves (I - mu S) h = mu. The
solver iterates the Neumann series h <- mu + mu S h, which contracts at
rate ||mu||_inf. This script watches the iteration, checks the far-field
decay of the correction, and traces the image of the real line.
"""

import numpy as np

import qcplane as q

grid = q.Grid(8.0, 256)
ball = q.indicator_ball(grid, 2j, 1.0, mollify_width=0.25)
mu = q.BeltramiCoefficient(ball.with_values(0.5 * ball.values))
# the support radius is derived from the samples: the farthest nonzero one plus a cell
print(f"dilatation: sup |mu| = {mu.sup_bound:.3f}, support radius {mu.support_radius:.4f}")

# --- the Neumann iteration contracts at rate ~ sup|mu| ----------------
report = q.neumann_solve(mu, mu.field, tol=1e-10, max_iter=100)
hist = report.residual_history
ratios = [hist[i + 1] / hist[i] for i in range(1, len(hist) - 1)]
print(f"solver: {report.iterations} iterations, final residual {hist[-1]:.1e}, "
      f"contraction ratio ~ {max(ratios):.3f}")

# --- the full map, and the far-field decay of rho(z) - z --------------
rho = q.solve_beltrami(mu, tol=1e-10)
angles = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
for radius in (2.8, 5.6):
    z = 2j + radius * angles
    dev = np.max(np.abs(rho(z) - z))
    print(f"|rho(z) - z| at distance {radius} from the support: {dev:.4f} "
          f"(~ C/{radius:.1f})")

# --- the curve rho(R) and its chord-arc constant ----------------------
trace = q.trace_curve(rho, 8.0, 1024)
ca = q.chord_arc_constant(trace)
print(f"traced curve: length {trace.total_length():.6f} over [-8, 8], "
      f"chord-arc constant {ca.constant:.8f}")

# --- operator norms that control invertibility ------------------------
stats = q.weighted_operator_norm(mu)
bound = q.inverse_weighted_bound(mu)
print(f"weighted operator norm of mu S: {stats.weighted_norm_estimate:.4f} "
      f"({stats.iteration_count} Lanczos steps)")
print(f"empirical inverse bound c1: {bound.probe_c1_estimate:.4f}")
