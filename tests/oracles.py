"""Reference implementations of the polyhedral quantities, for the tests only.

Each works by a different method from the package's production code, in
plain Python on exact numbers:

* facets: the dual candidate scheme.  Every facet normal is orthogonal to k
  generator differences and to n - k coordinate directions; each candidate
  is kept when it has one sign and is valid on every generator.
* covolume: the divergence recursion of ``polytope_volume`` on the box
  [0, M]^n cut by the oracle's facets, M the largest pure-power degree.
* closure: every lattice point of the generators' bounding box tested with
  ``FacetInequality.satisfied``, keeping those with no predecessor inside.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from staircase import MonomialIdeal, build_polytope
from staircase.ideals import pure_power_degrees

Ineq = tuple[tuple[int, ...], int]  # coefficients a, right hand side b: a . u >= b


def _det_laplace(rows: list[list[int]]) -> int:
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _det_laplace([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


@lru_cache(maxsize=None)
def facets_oracle(points: tuple[tuple[int, ...], ...], n: int) -> tuple[Ineq, ...]:
    """Sorted (coefficients, rhs) of the facets of conv(points) + R_+^n, by the candidate scheme."""
    found: set[Ineq] = set()
    for k in range(1, n + 1):
        for support in combinations(range(n), k):  # the normal vanishes off the support
            for combo in combinations(points, k):
                base = combo[0]
                diffs = [[p[j] - base[j] for j in support] for p in combo[1:]]
                normal_s = [(-1) ** i * _det_laplace([d[:i] + d[i + 1 :] for d in diffs]) for i in range(k)]
                if all(c <= 0 for c in normal_s):
                    normal_s = [-c for c in normal_s]
                if not any(normal_s) or any(c < 0 for c in normal_s):
                    continue
                normal = [0] * n
                for j, c in zip(support, normal_s):
                    normal[j] = c
                rhs = sum(c * x for c, x in zip(normal, base))
                if all(sum(c * x for c, x in zip(normal, p)) >= rhs for p in points):
                    g = math.gcd(*normal)
                    found.add((tuple(c // g for c in normal), rhs // g))
    return tuple(sorted(found))


def _primitive(coeffs: tuple[int, ...], rhs: int) -> Ineq:
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    if g > 1 and rhs % g == 0:
        return tuple(c // g for c in coeffs), rhs // g
    return coeffs, rhs


def _eliminate(ineq: Ineq, eq: Ineq, k: int) -> Ineq:
    """Substitute u_k from the equality a.u = b into c.u >= r, dropping coordinate k."""
    (c, r), (a, b) = ineq, eq
    ak, ck = a[k], c[k]
    s = 1 if ak > 0 else -1
    new_c = tuple(s * (c[j] * ak - ck * a[j]) for j in range(len(c)) if j != k)
    new_r = s * (r * ak - ck * b)
    return new_c, new_r


def polytope_volume(ineqs: list[Ineq], dim: int) -> Fraction:
    """Euclidean volume of the bounded set {u in R^dim : a.u >= b for all (a, b)}.

    Uses the divergence identity d * vol(Q) = sum_i (-b_i) * vol_{d-1}(F_i) / |a_i k|,
    where F_i is the face on a_i . u = b_i projected along a coordinate k
    with a_i k != 0.  Lower-dimensional and empty systems return 0.
    """
    clean: dict[tuple[int, ...], int] = {}
    for a, b in ineqs:
        if all(c == 0 for c in a):
            if b > 0:
                return Fraction(0)
            continue
        a, b = _primitive(a, b)
        prev = clean.get(a)
        if prev is None or b > prev:
            clean[a] = b

    if dim == 1:
        lo = hi = None
        for (c,), r in clean.items():
            v = Fraction(r, c)
            if c > 0:
                lo = v if lo is None else max(lo, v)
            else:
                hi = v if hi is None else min(hi, v)
        if lo is None or hi is None:
            raise ValueError("unbounded one-dimensional system")
        return max(Fraction(0), hi - lo)

    rows = sorted(clean.items())
    total = Fraction(0)
    for a, b in rows:
        if b == 0:
            continue  # zero contribution
        k = max(j for j in range(dim) if a[j] != 0)
        sub = [_eliminate((c, r), (a, b), k) for c, r in rows if c != a]
        face = polytope_volume(sub, dim - 1)
        if face:
            total += Fraction(-b, abs(a[k])) * face
    return total / dim


def covolume_oracle(J: MonomialIdeal) -> Fraction:
    """n! * (M^n - vol of the polytope inside [0, M]^n), from the oracle's facets."""
    n = J.n
    M = max(pure_power_degrees(J))
    if M == 0:
        return Fraction(0)
    ineqs = list(facets_oracle(J.gens, n))
    ineqs += [(tuple(-1 if j == i else 0 for j in range(n)), -M) for i in range(n)]
    return math.factorial(n) * (Fraction(M) ** n - polytope_volume(ineqs, n))


def closure_oracle(J: MonomialIdeal) -> MonomialIdeal:
    """Lattice points of the polytope in the generators' bounding box, minimalized."""
    facets = build_polytope(J).facets
    box = [max(g[i] for g in J.gens) for i in range(J.n)]
    inside = {u for u in product(*(range(b + 1) for b in box)) if all(f.satisfied(u) for f in facets)}
    return MonomialIdeal(
        J.n,
        tuple(
            u
            for u in inside
            if not any(u[i] and u[:i] + (u[i] - 1,) + u[i + 1 :] in inside for i in range(J.n))
        ),
    )
