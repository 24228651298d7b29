"""Entanglement depth from collective polarization noise.

The depth bound converts (polarization, transverse noise) into a minimum
entangled-cluster size.  The macroscopic fraction is 1 for pure squeezed
states and degrades with thermal noise; the exact small-spin boundary from
one tridiagonal block solve validates the closed form.
"""

import math

from polsqueeze import (
    StateParams,
    depth_large_j,
    macroscopic_fraction,
    min_jx2_at_defect,
)

print("=== depth of a bright squeezed beam ===")
for nth in (0.0, 0.05, 0.2):
    p = StateParams(1000.0, 0.3, nth)
    r = depth_large_j(p)
    print(f"nth = {nth:4.2f}: k = {r.k:8.1f} entangled photons of "
          f"{2 * (1000 + p.vmode_mean) / 2:.0f}  (fraction {r.fraction:.3f}, "
          f"noise v = {r.v:.3f})")

print("\n=== macroscopic depth fraction over the noise plane ===")
print("        ns:  0.01   0.10   1.00  10.0")
for nth in (1e-3, 0.01, 0.1, 1.0):
    row = []
    for ns in (0.01, 0.1, 1.0, 10.0):
        frac, grey = macroscopic_fraction(ns, nth)
        row.append(" grey " if grey else f"{frac:.3f}")
    print(f"nth = {nth:5.3f}: " + "  ".join(row))

print("\n=== exact small-spin boundary vs the closed form ===")
print("minimum scaled noise 2<jx^2>/J at given polarization defect:")
for j in (50, 200):
    for db in (0.25, 1.0, 2.0):
        exact = 2 * min_jx2_at_defect(j, db) / j
        closed = 1 + 2 * db - 2 * math.sqrt(db * (1 + db))
        bound = 5 * math.sqrt(db) / (2 * j)
        print(f"J = {j:3d}, defect = {db:4.2f}: exact {exact:.5f}  closed {closed:.5f}"
              f"  |diff| {abs(exact - closed):.2e} <= bound {bound:.2e}")
