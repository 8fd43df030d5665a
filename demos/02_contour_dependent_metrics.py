#!/usr/bin/env python3
"""The metric operator depends on the contour; its transport rule is exact.

Each contour carries its own inner-product weight eta = exp(k3 p^3 + k1 p).
The map between two contours rescales momentum by beta and shifts the
exponent by gamma, so the coefficients must transport as

    k3 -> k3 / beta^3        k1 -> k1 / beta - 2 gamma

These identities hold in exact rational arithmetic for all ordered pairs of
the five standard contours -- the algebraic heart of the equivalence.
"""
from ptcontour import STANDARD_FIVE, map_params, metric_of, push_metric

print("contour (a,b,c)        kappa3    kappa1")
print("-" * 44)
for params in STANDARD_FIVE:
    spec = metric_of(params)
    print(f"{params.label():16s}  {str(spec.kappa3):>8s}  {str(spec.kappa1):>8s}")

print("\ntransport across all ordered pairs (exact, zero tolerance):")
count = 0
for src in STANDARD_FIVE:
    for dst in STANDARD_FIVE:
        if src is dst:
            continue
        m = map_params(src, dst)
        pushed = push_metric(m, metric_of(src))   # raises on any mismatch
        count += 1
print(f"  {count} ordered pairs verified")

m = map_params(STANDARD_FIVE[1], STANDARD_FIVE[0])
print(f"\nexample: {m.source.label()} -> {m.target.label()}: "
      f"beta = {m.beta}, gamma = {m.gamma}")
print(f"  (4/3) / beta^3 = {metric_of(m.source).kappa3 / m.beta**3} "
      f"and -2/beta - 2*gamma = "
      f"{metric_of(m.source).kappa1 / m.beta - 2 * m.gamma}")
