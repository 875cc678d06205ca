"""Carleson norms of |mu|^2 / |y| against weighted operator norms.

For dilatations supported off the real line, the Carleson norm of the
density |mu|^2/|y| over balls centered on the line and the norm of mu S
on L2 with weight 1/|y| move together: their ratio stays inside a fixed
bracket while the quantities themselves vary by orders of magnitude.
"""

import numpy as np

import qcplane as q

grid = q.Grid(8.0, 256)
ball = q.indicator_ball(grid, 2j, 1.0, mollify_width=0.25)

print(f"{'amplitude':>10} {'carleson':>12} {'opnorm^2':>12} {'ratio':>8}")
for c in (0.2, 0.35, 0.5, 0.65, 0.8):
    mu = q.BeltramiCoefficient(ball.with_values(c * ball.values))
    carleson = q.carleson_norm(q.carleson_density(mu))
    est = q.weighted_operator_norm(mu, tol=1e-5, max_iter=60).weighted_norm_estimate
    print(f"{c:>10.2f} {carleson.norm:>12.6f} {est**2:>12.6f} "
          f"{est**2 / carleson.norm:>8.3f}")

# The sweep reports a witness ball achieving the sup; re-measuring it
# reproduces the norm exactly because both share the same arithmetic.
mu = q.BeltramiCoefficient(ball.with_values(0.5 * ball.values))
report = q.carleson_norm(q.carleson_density(mu))
mass = q.ball_mass(q.carleson_density(mu), report.witness_center, report.witness_radius)
print(f"\nwitness ball: center {report.witness_center}, radius {report.witness_radius}; "
      f"mass/radius = {mass / report.witness_radius:.6f} vs norm {report.norm:.6f}")

# The row-integral bound behind the equivalence: integrating the
# comparison kernel along any horizontal row stays below 4*pi.
rng = np.random.default_rng(0)
pts = rng.uniform(-6, 6, 20) + 1j * rng.uniform(grid.stagger, 6, 20)
vals = [q.lemma1_row_integral(z, grid) for z in pts]
print(f"row integrals at 20 points: max {max(vals):.4f} (bound {4 * np.pi:.4f})")

# Weighted energy of the correction term h = dbar(rho): finite exactly
# when the curve is rectifiable.
rho = q.solve_beltrami(mu, tol=1e-10)
print(f"rectifiability energy of dbar(rho): "
      f"{q.rectifiability_energy(rho.dbar_field):.6f}")
