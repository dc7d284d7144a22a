"""Newton polytopes of monomial ideals: facets, membership, diagonal entry, covolume.

The polytope of an ideal is conv(generator points) + R_+^n.  Every facet
inequality has a nonnegative normal, so the exact H-description consists of
primitive integer inequalities c . u >= rhs.  Facets come from double
description over the integers, which also records the points on each facet;
the covolume sums integer determinants over a triangulation of the facets
that face the origin.  Everything is pure Python on exact integers, for any
exponent size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .ideals import MonomialIdeal, pure_power_degrees
from .lp import lp_feasible


@dataclass(frozen=True)
class FacetInequality:
    """Integer inequality sum_i coefficients[i] * u_i >= rhs, primitive and valid on the polytope."""

    coefficients: tuple[int, ...]
    rhs: int

    def evaluate(self, u) -> Fraction | int:
        """c . u, exact for integer and Fraction coordinates."""
        return sum(c * x for c, x in zip(self.coefficients, u))

    def satisfied(self, u) -> bool:
        return self.evaluate(u) >= self.rhs

    @property
    def is_bounded(self) -> bool:
        """Bounded facets have all-positive normals (no recession direction)."""
        return all(c > 0 for c in self.coefficients)

    def normal_form(self) -> tuple[Fraction, ...] | None:
        """Intercepts a_i with sum u_i / a_i >= 1, defined for bounded facets with rhs > 0."""
        if self.rhs <= 0 or not self.is_bounded:
            return None
        return tuple(Fraction(self.rhs, c) for c in self.coefficients)


@dataclass(frozen=True)
class MuValue:
    """Smallest alpha with alpha * (1, ..., 1) in the polytope, plus its reciprocal.

    lct is None exactly for the unit ideal, where mu = 0.
    """

    mu: Fraction
    lct: Fraction | None
    witness_facet: FacetInequality | None


def _primitive(v: tuple[int, ...]) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return tuple(x // g for x in v)


def _double_description(points: tuple[tuple[int, ...], ...], n: int):
    """Facets of conv(points) + R_+^n, sorted, and per facet the bitmask of the points on it.

    The valid inequalities c . u >= r form the cone {(c, r) : c >= 0,
    c . g - r >= 0 for every point g}; its extreme rays other than (0, -1)
    are the facets.  Double description (Motzkin; Fukuda-Prodon 1996) starts
    from the simplicial cone of c >= 0 and the first point, whose rays are
    (e_j, g_0[j]) and (0, -1), and cuts it with one point at a time.  A ray's
    zero set is a bitmask: bit j for c_j = 0, bit n + i when point i is
    tight.  Rays on opposite sides of a cut are adjacent when no third ray's
    zero set contains the intersection of theirs, and each adjacent pair
    gives one new primitive ray on the cut.
    """
    g0 = points[0]
    coords = (1 << n) - 1
    rays = [(tuple(int(i == j) for i in range(n)) + (g0[j],), (coords & ~(1 << j)) | 1 << n) for j in range(n)]
    rays.append(((0,) * n + (-1,), coords))
    for i in range(1, len(points)):
        g, bit = points[i], 1 << (n + i)
        signed = [(ray, z, sum(c * x for c, x in zip(ray, g)) - ray[n]) for ray, z in rays]
        neg = [t for t in signed if t[2] < 0]
        kept = [(ray, z | bit if s == 0 else z) for ray, z, s in signed if s >= 0]
        zero_sets = [z for _, z in rays]
        for p, zp, sp in signed:
            if sp <= 0:
                continue
            for q, zq, sq in neg:
                z = zp & zq
                if z.bit_count() >= n - 1 and sum(1 for zr in zero_sets if zr & z == z) == 2:
                    kept.append((_primitive(tuple(sp * b - sq * a for a, b in zip(p, q))), z | bit))
        rays = kept
    facets = sorted((ray, z >> n) for ray, z in rays if any(ray[:n]))
    return (
        tuple(FacetInequality(ray[:n], ray[n]) for ray, _ in facets),
        tuple(tight for _, tight in facets),
    )


def _det(rows: list[tuple[int, ...]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


class NewtonPolytope:
    """conv(points) + R_+^n for a finite set of lattice points; immutable once built.

    Facet enumeration runs once on first use; all queries are read-only.
    """

    def __init__(self, n: int, points: tuple[tuple[int, ...], ...]):
        self.n = n
        self.points = tuple(sorted(points))
        self._facets: tuple[FacetInequality, ...] | None = None
        self._zero_sets: tuple[int, ...] = ()

    def __repr__(self):
        return f"NewtonPolytope(n={self.n}, points={list(self.points)})"

    @property
    def facets(self) -> tuple[FacetInequality, ...]:
        if self._facets is None:
            self._facets, self._zero_sets = _double_description(self.points, self.n)
        return self._facets

    @property
    def zero_sets(self) -> tuple[int, ...]:
        """Per facet, the bitmask over self.points of the points lying on it."""
        self.facets  # enumerates on first use
        return self._zero_sets

    @property
    def bounded_facets(self) -> tuple[FacetInequality, ...]:
        return tuple(f for f in self.facets if f.is_bounded)

    def _point(self, u) -> tuple[Fraction, ...]:
        """u as n nonnegative Fractions; a message names a coordinate by position, never by value."""
        u = tuple(Fraction(x) for x in u)
        if len(u) != self.n:
            raise DomainError(f"point has length {len(u)}, expected {self.n}")
        for i, x in enumerate(u):
            if x < 0:
                raise DomainError(f"point has a negative coordinate at position {i}")
        return u

    def contains_point(self, u) -> bool:
        """Exact membership via the facet description."""
        u = self._point(u)
        return all(f.satisfied(u) for f in self.facets)

    def contains_point_lp(self, u) -> bool:
        """Independent membership oracle: is u = sum lambda_i v_i + r with
        lambda >= 0, sum lambda = 1, r >= 0 feasible?  Exact phase-1 simplex."""
        u = self._point(u)
        m = len(self.points)
        A: list[list[Fraction]] = []
        b: list[Fraction] = []
        for j in range(self.n):
            row = [Fraction(p[j]) for p in self.points]
            row += [Fraction(1) if i == j else Fraction(0) for i in range(self.n)]
            A.append(row)
            b.append(u[j])
        A.append([Fraction(1)] * m + [Fraction(0)] * self.n)
        b.append(Fraction(1))
        return lp_feasible(A, b)


@lru_cache(maxsize=32)
def build_polytope(J: MonomialIdeal) -> NewtonPolytope:
    """Newton polytope of a monomial ideal (cached, as ideals are immutable, for what one command reuses)."""
    return NewtonPolytope(J.n, J.gens)


def compute_mu(J: MonomialIdeal) -> MuValue:
    """Entry value of the diagonal ray into the Newton polytope.

    Each facet c . u >= rhs forces alpha >= rhs / sum(c) on the diagonal, so
    the entry value is the maximum of those ratios; it is 0 exactly for the
    unit ideal.  The reciprocal is the log canonical threshold.
    """
    P = build_polytope(J)
    best = Fraction(0)
    witness = None
    for f in P.facets:
        val = Fraction(f.rhs, sum(f.coefficients))
        if val > best or witness is None:
            best = val
            witness = f
    if best == 0:
        return MuValue(mu=Fraction(0), lct=None, witness_facet=witness)
    return MuValue(mu=best, lct=1 / best, witness_facet=witness)


def covolume(J: MonomialIdeal) -> Fraction:
    """n! times the volume of the bounded staircase region R_+^n minus the polytope.

    Requires a zero-dimensional ideal.  The region is the union of the
    pyramids conv(0, F) over the facets F with rhs > 0, whose normals are
    all positive, so F is the convex hull of the generators on it.  Each F
    gets a pulling triangulation: pull its lexicographically least point v
    (a vertex) and recurse into the facets of F that miss v.  The facets of
    a face K are the maximal proper intersections of K's points with the
    zero sets of the polytope's facets, so no rank is computed.  A simplex
    (v_1, ..., v_n) of F adds |det(v_1, ..., v_n)| = n! vol(conv(0, v_1, ..., v_n)).
    """
    pure_power_degrees(J)  # DimensionError off zero-dimensional ideals
    P = build_polytope(J)
    zero_sets = P.zero_sets
    simplices: dict[int, list[list[int]]] = {}

    def pull(face: int) -> list[list[int]]:
        v = face & -face
        if face == v:
            return [[v]]
        if face not in simplices:
            subfaces = {face & z for z in zero_sets} - {face, 0}
            maximal = [k for k in subfaces if not any(k != o and k & o == k for o in subfaces)]
            simplices[face] = [[v] + s for k in maximal if not k & v for s in pull(k)]
        return simplices[face]

    total = 0
    for f, face in zip(P.facets, zero_sets):
        if f.rhs > 0:
            for s in pull(face):
                total += abs(_det([P.points[b.bit_length() - 1] for b in s]))
    return Fraction(total)
