"""Extending an increasing boundary map of the real line into the plane.

The extension averages the boundary data over expanding windows:

    Re rho = (1/2) int_0^1 [f(x+ty) + f(x-ty)] dt
    Im rho = (1/2) int_0^1 [f(x+ty) - f(x-ty)] dt

It is quasiconformal whenever f is quasisymmetric, and its dilatation
is measured from its exact Wirtinger pair.
"""

import numpy as np

import qcplane as q

# --- the identity extends to an affine map with constant dilatation ---
identity = q.ba_extension(lambda x: np.asarray(x, float))
z = np.array([1.0 + 2.0j, -3.0 + 0.5j, 0.2 - 1.0j])
print(f"identity boundary: rho(z) = {identity(z).round(12)}")
print("               vs   x + iy/2 (affine, mu = 1/3 everywhere)")

# --- a smooth quasisymmetric boundary map -----------------------------
smooth = q.ba_extension(lambda x: x + 0.5 * np.tanh(x))
grid = q.Grid(8.0, 128)
mu = q.map_dilatation(smooth, grid)
print(f"tanh-perturbed boundary: sup |mu| = {mu.sup_bound:.4f}")

# --- the power map sign(x) |x|^(1/K): quasisymmetric but singular -----
K = 1.5
power = q.ba_extension(lambda x: np.sign(x) * np.abs(x) ** (1.0 / K))
for n in (128, 256):
    grid = q.Grid(8.0, n)
    mu = q.map_dilatation(power, grid)
    carleson = q.carleson_norm(q.carleson_density(mu))
    print(f"power boundary at n={n}: sup |mu| = {mu.sup_bound:.6f} < 1, "
          f"Carleson norm {carleson.norm:.4f}")

# --- sampled data works too (monotone interpolation) ------------------
samples = q.line_sample(lambda x: x + 0.5 * np.tanh(x), 64.0, 8192)
sampled = q.ba_extension(samples)
probe = np.array([0.3 + 0.9j, -1.2 + 0.4j])
dev = np.max(np.abs(sampled(probe) - smooth(probe)))
print(f"sampled vs callable boundary at test points: max dev {dev:.2e}")

# --- the traced image of the real line --------------------------------
trace = q.trace_curve(power, 8.0, 1024)
ca = q.chord_arc_constant(trace)
print(f"power-map image: length {trace.total_length():.4f}, "
      f"chord-arc constant {ca.constant:.6f}")
