#!/usr/bin/env python3
"""Locate the node-free localized solution and dump its profile.

Example:
    python scripts/ground_state_profile.py --m 1.0 --omega 0.5 --out profile.csv
"""

import argparse

from diracshoot import Params, Tolerances, ground_state


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=float, default=1.0)
    ap.add_argument("--omega", type=float, default=0.5)
    ap.add_argument("--out", default="ground_state_profile.csv")
    args = ap.parse_args()

    p = Params(args.m, args.omega)
    gs = ground_state(p, Tolerances())
    print(f"lambda*        = {gs.lambda_star:.15g}")
    print(f"bracket width  = {gs.bracket_width:.3e}")
    print(f"classify calls = {len(gs.history)}")
    print(f"node count     = {gs.node_count}")
    print(f"decay slope    = {gs.decay_slope:.6f}  (bound {-p.gap / 2:.3f})")
    print(f"tail anchor r  = {gs.anchor_r:.3f}")

    with open(args.out, "w") as fh:
        fh.write("r,u,v,H\n")
        for row in zip(gs.profile.r, gs.profile.u, gs.profile.v, gs.profile.H):
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")
    print(f"profile ({len(gs.profile)} samples) -> {args.out}")


if __name__ == "__main__":
    main()
