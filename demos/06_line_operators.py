"""Cauchy integrals on the line and on traced curves.

The Cauchy extension of a line function jumps across the line by
exactly the function itself; its symmetric part is the principal-value
integral. On a rectifiable curve, the discretized Cauchy operator has a
bounded norm - 0.5 exactly on the straight line - and the difference-
quotient kernel diagnostic identifies curves by a universal shape.
"""

import numpy as np

import qcplane as q

# --- Plemelj jump and principal value for 1/(1+x^2) -------------------
line = q.line_sample(lambda x: 1.0 / (1.0 + x * x), 100.0, 8192)
plus, minus = q.plemelj_boundary(line)
jump = np.max(np.abs(plus.values - minus.values - line.values))
print(f"boundary jump f+ - f- = f: max deviation {jump:.2e}")

pv = q.line_pv_cauchy(line)
oracle = 0.5j * line.x / (1.0 + line.x ** 2)
rel = np.sqrt(np.sum(np.abs(pv.values - oracle) ** 2) / np.sum(np.abs(oracle) ** 2))
print(f"principal value vs closed form (i/2) x/(1+x^2): rel error {rel:.2e} "
      f"(window truncation; shrinks like X^-1/2)")

# --- holomorphic extension off the line -------------------------------
targets = np.array([0.5 + 1.0j, -2.0 + 0.3j, 1.0 - 2.0j])
ext = q.cauchy_line_extension(line, targets)
closed = np.where(targets.imag > 0, 0.5j / (targets + 1j), 0.5j / (targets - 1j))
print(f"extension at off-line points: max dev {np.max(np.abs(ext - closed)):.2e}")

# --- curve Cauchy operator norms --------------------------------------
xs = np.linspace(-20.0, 20.0, 2048)
straight = q.CurveTrace(xs, xs.astype(complex))
print(f"curve Cauchy norm, straight line: {q.curve_cauchy_operator(straight).weighted_norm_estimate:.6f}")

t = np.linspace(-2 * np.pi, 2 * np.pi, 1024)
wavy = q.CurveTrace(t, t + 0.3j * np.sin(t))
print(f"curve Cauchy norm, wavy graph:    {q.curve_cauchy_operator(wavy).weighted_norm_estimate:.6f}")
print(f"chord-arc constant of the graph:  {q.chord_arc_constant(wavy).constant:.6f}")
print(f"regularity (max mass/radius):     {q.regularity_check(wavy):.6f} "
      f"(2.0 for a straight line)")

# --- difference-quotient kernel shape ---------------------------------
# The transform of the difference-quotient kernel follows one universal
# profile c (e^{2 pi i xi} - 1)/|xi| independent of the step h.
freqs = np.linspace(-6, 6, 241)
freqs = freqs[freqs != 0]
khat = q.dq_kernel_transform(1.0, freqs)
mask = np.abs(freqs) >= 0.05
shape = (np.exp(2j * np.pi * freqs[mask]) - 1.0) / np.abs(freqs[mask])
c = np.vdot(shape, khat[mask]) / np.vdot(shape, shape)
resid = np.linalg.norm(khat[mask] - c * shape) / np.linalg.norm(khat[mask])
print(f"kernel transform: sup {np.max(np.abs(khat)):.4f}, "
      f"universal-shape fit c = {c.real:.4f} with residual {resid:.1e}")
