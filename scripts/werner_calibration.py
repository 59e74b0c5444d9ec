#!/usr/bin/env python3
"""Sweep the Werner family and print where each pipeline flips.

Three columns per noise value p: PPT across the A|B cut (flips at
p = 1/3), six-direction steering detection by the Bloch-ball LHS LP, and
its LHS-model certificate for the same six directions (both flip at the
six-setting threshold p ~ 0.539; the certificate covers all projective
measurements of the state shrunk by the measurement polytope's inradius).
The certified critical-radius bracket for the singlet is printed last;
the exact projective threshold 0.5 must fall inside it.

Usage:
    python scripts/werner_calibration.py [--hidden-level K] [--steps N]
"""

import argparse

import numpy as np

from cyclesteer.entanglement import is_ppt
from cyclesteer.lhs import RadiusParams, certify_unsteerable_shrunk, critical_radius_bounds, detect_steerable
from cyclesteer.polytope import antipodal_directions, sphere_polytope
from cyclesteer.states import werner


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--hidden-level", type=int, default=RadiusParams().hidden_level)
    ap.add_argument("--steps", type=int, default=11)
    args = ap.parse_args()

    params = RadiusParams(hidden_level=args.hidden_level)
    meas = sphere_polytope(params.meas_level)
    hidden = sphere_polytope(params.hidden_level)
    directions = antipodal_directions(meas)

    print(f"{'p':>6}  {'ppt':>5}  {'detected':>8}  {'certified':>9}")
    for p in np.linspace(0.0, 1.0, args.steps):
        rho = werner(float(p))
        row = (
            is_ppt(rho, 0),
            detect_steerable(rho, directions, hidden)[0],
            certify_unsteerable_shrunk(rho, meas, hidden),
        )
        print(f"{p:>6.2f}  {str(row[0]):>5}  {str(row[1]):>8}  {str(row[2]):>9}")

    rep = critical_radius_bounds(werner(1.0), params)
    print(f"\nsinglet critical-radius bracket: [{rep.r_in:.4f}, {rep.r_out:.4f}]"
          f" (exact projective threshold: 0.5)")


if __name__ == "__main__":
    main()
