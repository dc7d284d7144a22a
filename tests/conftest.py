"""Shared corpus builders for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import HealthCheck, settings

from staircase import PolyIdeal, RationalPolynomial
from staircase.polynomials import substitute_linear

settings.register_profile(
    "suite", deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


def mix(*parts: int) -> int:
    key = 0x9E3779B97F4A7C15
    for p in parts:
        key = (key * 0x100000001B3 + (p & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
    return key


def random_origin_ideal(seed: int, n: int) -> PolyIdeal:
    """Random polynomial ideal supported exactly at the origin.

    Exact pure powers of every variable force the support; random extra
    generators and an optional unimodular shear make the Groebner and
    truncation computations nontrivial.  Generator degrees stay <= 4.
    """
    rng = random.Random(mix(seed, n))
    gens = [
        RationalPolynomial(
            n, {tuple(rng.randint(2, 3) if j == i else 0 for j in range(n)): Fraction(1)}
        )
        for i in range(n)
    ]
    for _ in range(rng.randint(1, 2)):
        terms: dict[tuple[int, ...], Fraction] = {}
        for _ in range(rng.randint(2, 3)):
            d = rng.randint(1, 4)
            e = [0] * n
            for _ in range(d):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + rng.choice([1, -1, 2, -2])
        g = RationalPolynomial(n, terms)
        if not g.is_zero:
            gens.append(g)
    if rng.random() < 0.5:
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(1, n):
            for j in range(i):
                m[i][j] = rng.randint(-2, 2)
        # every coefficient is an integer, so the integer shear is exact
        gens = [RationalPolynomial(n, substitute_linear({e: c.numerator for e, c in g.terms.items()}, m)) for g in gens]
    return PolyIdeal(n, tuple(gens))
