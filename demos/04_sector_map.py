"""A closed-form quasiconformal map whose boundary curve is chord-arc
but not bilipschitz.

The map keeps |z| -> |z|^(1/K) exactly and compresses angles away from
the real axis. Its dilatation vanishes on the sectors around the axis
and has constant modulus 1 - 1/K in between, and the image of the real
line is a perfect chord-arc curve (constant 1) even though the map
itself degenerates at the origin.
"""

import numpy as np

import qcplane as q

K = 1.5
grid = q.Grid(8.0, 256)
rho = q.prop2_map(K)
mu = q.map_dilatation(rho, grid)

# --- modulus law, exact by construction -------------------------------
rng = np.random.default_rng(0)
z = rng.uniform(-8, 8, 2000) + 1j * rng.uniform(-8, 8, 2000)
dev = np.max(np.abs(np.abs(rho(z)) - np.abs(z) ** (1 / K)))
print(f"| |rho(z)| - |z|^(1/K) | at 2000 points: {dev:.2e}")

# --- sector structure of the dilatation -------------------------------
theta = np.angle(grid.points())
on_axis = (np.abs(theta) <= np.pi / 4) | (np.abs(theta) >= 3 * np.pi / 4)
vals = np.abs(mu.field.values)
print(f"|mu| on the axis sectors: max {vals[on_axis].max():.2e} (vanishes)")
print(f"|mu| on the middle sectors: mean {vals[~on_axis].mean():.8f} "
      f"(constant 1 - 1/K = {1 - 1 / K:.8f})")

# --- the boundary curve is chord-arc with constant 1 ------------------
trace = q.trace_curve(rho, 8.0, 2048)
ca = q.chord_arc_constant(trace)
print(f"boundary image chord-arc constant: {ca.constant:.12f}")

# --- but the map is not bilipschitz at the origin ---------------------
x = np.geomspace(1e-4, 4.0, 24)
pairs = np.stack([x.astype(complex), -x.astype(complex)], axis=1)
profile = q.bilipschitz_profile(rho, pairs)
print(f"distortion across the origin: |rho(x) - rho(-x)| / 2|x| ranges "
      f"[{profile.lower:.4f}, {profile.upper:.4f}]")
print(f"blowup exponent {profile.blowup_exponent:.5f} (1/K - 1 = {1 / K - 1:.5f}): "
      f"contraction sharpens without bound approaching 0")

# --- the curve Cauchy operator stays bounded anyway -------------------
est = q.curve_cauchy_operator(q.trace_curve(rho, 8.0, 1024)).weighted_norm_estimate
print(f"curve Cauchy operator norm on the image: {est:.6f} "
      f"(0.5 on the straight line)")
