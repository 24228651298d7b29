"""Monte Carlo coincidence detection and pair-averaged tomography.

Simulates shots on a megapixel analyzer bank, reconstructs the two-photon
matrix from all photon pairs per shot, and shows the two statistical
hallmarks: single-shot errors shrinking like 1/N, and a flat-in-N shot
budget for certifying the partial-transpose signature.
"""

import math

import numpy as np

from polsqueeze import StateParams, reduced_two_body
from polsqueeze.detect import DetectorArray, run_pair_tomography

np.set_printoptions(precision=4, suppress=True)

print("=== reconstructing the N=32 state from simulated shots ===")
n = 32
p = StateParams(float(n), 0.3, 0.0)
arr = DetectorArray(m=2**20, rng_seed=7)
res = run_pair_tomography(p, arr, shots_per_setting=1500, fixed_n=n)
print("reconstructed:")
print(res.matrix.matrix)
print("exact:")
print(reduced_two_body(p, n).matrix)
print(f"delta_hat = {res.delta_hat:.4f} +- {res.delta_se:.4f}")
print(f"collision fraction: {res.collision_fraction:.4f}")

print("\n=== single-shot error of delta shrinks like 1/N ===")
shots = 1200
rows = []
for n in (16, 32, 64):
    p = StateParams(float(n), 0.3, 0.0)
    res = run_pair_tomography(
        p, DetectorArray(m=2**20, rng_seed=100 + n), shots_per_setting=shots, fixed_n=n
    )
    rows.append((n, res.single_shot_err))
    print(f"N = {n:3d}: single-shot delta error {res.single_shot_err:.4f}, "
          f"shots for unit signal-to-noise ~ {res.shots_to_1sigma:.0f}")
slope = np.polyfit([math.log(r[0]) for r in rows], [math.log(r[1]) for r in rows], 1)[0]
print(f"log-log slope of the single-shot error: {slope:.2f} (expect about -1)")
print("the shot budget stays flat as N grows: entanglement certification at")
print("constant cost, with detector count as the only scaling resource.")
