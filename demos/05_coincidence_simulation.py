"""Monte Carlo coincidence detection and pair-averaged tomography.

Simulates shots on a megapixel analyzer bank, reconstructs the two-photon
matrix from all photon pairs per shot, and shows the two statistical
hallmarks: single-shot errors shrinking like 1/N, and a flat-in-N shot
budget for certifying the partial-transpose signature.
"""

import math

import numpy as np

from polsqueeze import StateParams, reduced_two_body
from polsqueeze.detect import (
    DEFAULT_SCHEDULE,
    DetectorArray,
    run_pair_tomography,
    scan_photon_numbers,
)

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
sizes = (16, 32, 64)
scan = scan_photon_numbers(
    0.3, 0.0, sizes, m=2**20, efficiency=1.0, seed=100, shots=1200,
    schedule=DEFAULT_SCHEDULE, bootstrap=200,
)
for n, res in zip(sizes, scan):
    print(f"N = {n:3d}: single-shot delta error {res.single_shot_err:.4f}, "
          f"shots for unit signal-to-noise ~ {res.shots_to_1sigma:.0f}")
slope = np.polyfit(np.log(sizes), [math.log(r.single_shot_err) for r in scan], 1)[0]
print(f"log-log slope of the single-shot error: {slope:.2f} (expect about -1)")
print("the shot budget stays flat as N grows: entanglement certification at")
print("constant cost, with detector count as the only scaling resource.")
