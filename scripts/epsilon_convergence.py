#!/usr/bin/env python3
"""Convergence of the rescaled flow to the bubble, with remainder sizes.

Example:
    python scripts/epsilon_convergence.py --epsilon 0.2 0.1 0.05 0.025
"""

import argparse
import math

from diracshoot import Params, Tolerances, convergence_study, integrate_remainder


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=float, default=1.0)
    ap.add_argument("--omega", type=float, default=0.5)
    ap.add_argument("--epsilon", type=float, nargs="+", default=[0.2, 0.1, 0.05, 0.025])
    ap.add_argument("--T", type=float, default=10.0)
    args = ap.parse_args()

    p = Params(args.m, args.omega)
    tol = Tolerances()
    eps = sorted(set(args.epsilon), reverse=True)
    records = [integrate_remainder(e, p, tol) for e in eps]
    study = convergence_study(records, args.T, p, tol)

    print(f"{'eps':>8} {'sup err':>12} {'ratio':>8} {'node R':>10} {'sup|h2|+|k2|':>14}")
    for i, (e, rec) in enumerate(zip(study.epsilons, records)):
        ratio = f"{study.ratios[i - 1]:8.3f}" if i else " " * 8
        node = f"{study.node_radii[i]:10.4f}" if study.node_radii[i] else "      none"
        print(f"{e:8.4f} {study.sup_errors[i]:12.5e} {ratio} {node} {rec.sup_norm:14.5f}")
    print(f"(second-order rate: ratios near 4 for eps halving; horizon T={args.T})")


if __name__ == "__main__":
    main()
