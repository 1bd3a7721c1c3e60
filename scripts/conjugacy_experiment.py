#!/usr/bin/env python3
"""Sweep earthquake times on a genus-two surface and tabulate the
measured cuff shear against the predicted unipotent orbit, as sampled
by one `verify_conjugacy` report.

Usage: conjugacy_experiment.py [--weight W] [--cuff K] [--steps N] [--tmax T]
"""

import argparse

from eqlab.conjugacy import verify_conjugacy
from eqlab.surface import FNSurface, WeightedMulticurve


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--weight", type=float, default=1.0)
    parser.add_argument("--cuff", type=int, default=0)
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--tmax", type=float, default=0.5)
    args = parser.parse_args()

    surface = FNSurface.genus2(lengths=(2.0, 2.5, 3.0), twists=(0.1, -0.2, 0.3))
    mc = WeightedMulticurve({args.cuff: args.weight})
    ts = [args.tmax * k / args.steps for k in range(args.steps + 1)]
    report = verify_conjugacy(surface, mc, [args.cuff], ts)

    x0 = report.samples[0].predicted[0]  # the orbit at t = 0
    print(f"cuff {args.cuff}, weight {args.weight}: x0 = {x0:+.12f}")
    print(f"{'t':>8} {'measured x':>18} {'predicted x':>18} {'residual':>12}")
    for sample in report.samples:
        measured, predicted = sample.measured[0], sample.predicted[0]
        print(f"{sample.t:8.3f} {measured:+18.12f} {predicted:+18.12f} {sample.residual:12.3e}")
    print(f"max residual: {report.max_residual:.3e}")


if __name__ == "__main__":
    main()
