"""The scenario pipeline: one config in, a reproducible report bundle out.

A ScenarioConfig names a dilatation source and tolerances; run_scenario
wires it through the solver and every analyzer and writes report.json,
trace.csv, and mu.bin whose bytes depend only on the config. The same
pipeline backs the command-line entry points:

    qcplane run --scenario ball --grid-n 128 --out out/
    qcplane theorem1 --c 0.2 0.4 0.6 --out out/
    qcplane theorem2 --scenario prop2 --out out/
    qcplane transform-selftest
"""

import json
import tempfile
from pathlib import Path

import qcplane as q

out = Path(tempfile.mkdtemp(prefix="qcplane-demo-"))

# --- one scenario, full diagnostics -----------------------------------
config = q.ScenarioConfig(kind="ball", grid_n=128, c=0.4, center=3j, radius=1.0,
                          out_dir=str(out / "run"))
report = q.run_scenario(config)
print(f"wrote {sorted(p.name for p in (out / 'run').iterdir())}")
print(f"config hash {report['config_hash'][:16]} (bytes depend only on the config)")
print(f"carleson {report['carleson']['norm']:.6f}, "
      f"operator norm {report['operator']['weighted_norm_estimate']:.6f}, "
      f"c1 {report['invertibility']['probe_c1_estimate']:.6f}")
print(f"chord-arc {report['chord_arc']['constant']:.8f}, "
      f"regularity {report['regularity']:.6f}, "
      f"curve operator {report['curve_operator_norm']:.6f}")

# --- the norm-vs-norm table over a family -----------------------------
family = [q.ScenarioConfig(kind="ball", grid_n=128, c=c, center=3j, radius=1.0)
          for c in (0.2, 0.4, 0.6)]
table = q.compare_theorem1(family, out_dir=str(out / "table"))
for row in table["rows"]:
    print(f"{row['label']}: carleson {row['carleson_norm']:.6f}, "
          f"operator^2 {row['operator_norm_sq']:.6f}, ratio {row['ratio']:.3f}")
print(f"slope of log ||mu S||^2 against sup|mu| over the family: {table['norm_sq_slope']:.4f} "
      f"(homogeneity makes this exactly 2)")

# --- the invertibility-vs-geometry summary ----------------------------
summary = q.verify_theorem2(
    q.ScenarioConfig(kind="prop2", grid_n=128, k=1.5),
    out_path=str(out / "summary.json"),
)
print(f"sector scenario: carleson {summary['carleson_norm']:.4f}, "
      f"c1 {summary['c1_estimate']:.4f}, chord-arc {summary['chord_arc_constant']:.6f}, "
      f"blowup exponent {summary['blowup_exponent']:.4f}")

# Every emitted document validates against the shipped JSON schema.
for path in [out / "run" / "report.json", out / "table" / "theorem1.json",
             out / "summary.json"]:
    q.validate_document(json.loads(path.read_text()))
print(f"all emitted documents validate against the schema; artifacts in {out}")
