#!/usr/bin/env python3
"""Every admissible contour leads to one Hermitian Hamiltonian.

Replacing x by a contour z(x) = a*sqrt(b + i c x) turns p^2 - x^4 into a
non-Hermitian operator H1.  Conjugating H1 with exp(f p^3 + g p), with f and
g fixed by the parameters, produces a Hermitian operator -- and after one
canonical substitution plus a dilation, every single parameter choice lands
on the same anchor: p^2 + 4x^4 - 2x.  All of this is exact rational
operator algebra; nothing here is numerical.
"""
from ptcontour import (STANDARD_FIVE, build_h1, canonical_swap,
                       dyson_coefficients, hermitize, is_hermitian)

print("contour (a,b,c)   ->  Hermitian equivalent          ->  after swap")
print("-" * 78)
for params in STANDARD_FIVE:
    h1 = build_h1(params)
    h, f, g = hermitize(params)
    swapped = canonical_swap(h, params)
    assert is_hermitian(h) and not is_hermitian(h1)
    print(f"{params.label():12s}  h = {h!r}")
    print(f"{'':12s}  generator f = {f}, g = {g}")
    print(f"{'':12s}  swap: {swapped!r}")
    print()

print("Note how b never shows up in h: the b = 1 and b = 5 rows coincide.")
print("Only the similarity generator (through g = -b/c) remembers b.")
f1 = hermitize(STANDARD_FIVE[0])
f5 = hermitize(STANDARD_FIVE[4])
assert f1.h == f5.h and f1.g != f5.g
