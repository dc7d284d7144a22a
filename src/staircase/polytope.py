"""Newton polytopes of monomial ideals: facets, membership, diagonal entry, covolume.

The polytope of an ideal is conv(generator points) + R_+^n.  Every facet
inequality has a nonnegative normal, so the exact H-description consists of
integer inequalities c . u >= rhs.  Facets are enumerated by the dual
candidate scheme: normals orthogonal to k generator differences and n - k
coordinate directions, validated against all generator points.  This stays
exact and is comfortably fast for the ambient dimensions this package
targets (n up to about 6, a few dozen generators).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import DomainError
from .ideals import MonomialIdeal, pure_power_degrees
from .lp import lp_feasible
from .volume import polytope_volume


@dataclass(frozen=True)
class FacetInequality:
    """Integer inequality sum_i coefficients[i] * u_i >= rhs, primitive and valid on the polytope."""

    coefficients: tuple[int, ...]
    rhs: int

    def evaluate(self, u) -> Fraction:
        return sum((Fraction(c) * x for c, x in zip(self.coefficients, u)), Fraction(0))

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


def _det_batch(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of stacked square integer matrices, size up to 3 vectorized."""
    s = mats.shape[-1]
    if s == 0:
        return np.ones(mats.shape[0], dtype=mats.dtype)
    if s == 1:
        return mats[:, 0, 0]
    if s == 2:
        return mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    if s == 3:
        return (
            mats[:, 0, 0] * (mats[:, 1, 1] * mats[:, 2, 2] - mats[:, 1, 2] * mats[:, 2, 1])
            - mats[:, 0, 1] * (mats[:, 1, 0] * mats[:, 2, 2] - mats[:, 1, 2] * mats[:, 2, 0])
            + mats[:, 0, 2] * (mats[:, 1, 0] * mats[:, 2, 1] - mats[:, 1, 1] * mats[:, 2, 0])
        )
    return np.array([_det_laplace(m) for m in mats], dtype=mats.dtype)


def _det_laplace(m) -> int:
    rows = [list(map(int, r)) for r in m]
    size = len(rows)
    if size == 0:
        return 1
    if size == 1:
        return rows[0][0]
    total = 0
    for j in range(size):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det_laplace(minor)
    return total


def _facet_dtype(points, n: int):
    """int64 when all intermediate minors and dot products provably fit, else object."""
    mx = max((max(p) for p in points), default=0)
    bound = math.factorial(max(n - 1, 1)) * (2 * mx + 1) ** max(n - 1, 1)
    if bound * (2 * mx + 1) * (n + 1) < 2**62:
        return np.int64
    return object


def _enumerate_facets(points: tuple[tuple[int, ...], ...], n: int) -> tuple[FacetInequality, ...]:
    dtype = _facet_dtype(points, n)
    pts = np.array(points, dtype=dtype).reshape(len(points), n)
    axes = np.eye(n, dtype=dtype) if dtype is np.int64 else np.array([[int(i == j) for j in range(n)] for i in range(n)], dtype=object)

    blocks = []
    for k in range(1, n + 1):
        point_combos = list(combinations(range(len(points)), k))
        axis_combos = list(combinations(range(n), n - k))
        if not point_combos or not axis_combos:
            continue
        pc = np.array(point_combos, dtype=np.intp)
        base = pts[pc[:, 0]]
        diffs = pts[pc[:, 1:]] - base[:, None, :] if k > 1 else np.zeros((len(pc), 0, n), dtype=dtype)
        for ac in axis_combos:
            rows_ax = axes[list(ac)] if ac else np.zeros((0, n), dtype=dtype)
            mats = np.concatenate(
                [diffs, np.broadcast_to(rows_ax, (len(pc), len(ac), n))], axis=1
            )
            blocks.append((mats, base))

    found: set[tuple[tuple[int, ...], int]] = set()
    for mats, base in blocks:
        ncand = mats.shape[0]
        normals = np.empty((ncand, n), dtype=dtype)
        cols = np.arange(n)
        for j in range(n):
            sub = mats[:, :, cols != j]
            normals[:, j] = (-1) ** j * _det_batch(sub)
        nonzero = (normals != 0).any(axis=1)
        nonneg = (normals >= 0).all(axis=1)
        nonpos = (normals <= 0).all(axis=1)
        keep = nonzero & (nonneg | nonpos)
        if not keep.any():
            continue
        normals = np.where(nonpos[:, None], -normals, normals)[keep]
        rhs = (normals * base[keep]).sum(axis=1)
        valid = (pts @ normals.T >= rhs[None, :]).all(axis=0)
        for c, r in zip(normals[valid], rhs[valid]):
            coeffs = tuple(int(x) for x in c)
            g = 0
            for x in coeffs:
                g = math.gcd(g, x)
            found.add((tuple(x // g for x in coeffs), int(r) // g))

    return tuple(FacetInequality(c, r) for c, r in sorted(found))


class NewtonPolytope:
    """conv(points) + R_+^n for a finite set of lattice points; immutable once built.

    Facet enumeration runs once on first use; all queries are read-only.
    """

    def __init__(self, n: int, points: tuple[tuple[int, ...], ...]):
        self.n = n
        self.points = tuple(sorted(points))
        self._facets: tuple[FacetInequality, ...] | None = None

    def __repr__(self):
        return f"NewtonPolytope(n={self.n}, points={list(self.points)})"

    @property
    def facets(self) -> tuple[FacetInequality, ...]:
        if self._facets is None:
            self._facets = _enumerate_facets(self.points, self.n)
        return self._facets

    @property
    def bounded_facets(self) -> tuple[FacetInequality, ...]:
        return tuple(f for f in self.facets if f.is_bounded)

    def contains_point(self, u) -> bool:
        """Exact membership via the facet description."""
        u = tuple(Fraction(x) for x in u)
        if len(u) != self.n:
            raise DomainError(f"point has length {len(u)}, expected {self.n}")
        if any(x < 0 for x in u):
            raise DomainError(f"point {u} has a negative coordinate")
        return all(f.satisfied(u) for f in self.facets)

    def contains_point_lp(self, u) -> bool:
        """Independent membership oracle: is u = sum lambda_i v_i + r with
        lambda >= 0, sum lambda = 1, r >= 0 feasible?  Exact phase-1 simplex."""
        u = tuple(Fraction(x) for x in u)
        if len(u) != self.n:
            raise DomainError(f"point has length {len(u)}, expected {self.n}")
        if any(x < 0 for x in u):
            raise DomainError(f"point {u} has a negative coordinate")
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

    def batch_bytes_per_point(self) -> int:
        """Upper bound on the bytes contains_lattice_batch allocates per int64 query point.

        With int64 arithmetic: 8 per facet value and 1 per comparison.  When
        the values may overflow int64 they are Python ints, about 40 bytes
        each with their pointer, and so are the converted coordinates.
        """
        facets = len(self.facets)
        if _facet_dtype(self.points, self.n) is object:
            return 40 * (self.n + facets) + facets
        return 8 * facets + facets

    def contains_lattice_batch(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership for integer points (rows of pts)."""
        facets = self.facets
        C = np.array([f.coefficients for f in facets], dtype=object if _facet_dtype(self.points, self.n) is object else np.int64)
        r = np.array([f.rhs for f in facets], dtype=C.dtype)
        vals = pts.astype(C.dtype, copy=False) @ C.T
        return (vals >= r[None, :]).all(axis=1)


@lru_cache(maxsize=8192)
def build_polytope(J: MonomialIdeal) -> NewtonPolytope:
    """Newton polytope of a monomial ideal (cached; ideals are immutable)."""
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

    Computed as n! * (vol of the box [0, M]^n minus vol of polytope-in-box),
    where M is the largest minimal pure-power degree; the complement lies
    inside that box.  Requires a zero-dimensional ideal.
    """
    degs = pure_power_degrees(J)
    M = max(degs)
    if M == 0:
        return Fraction(0)
    n = J.n
    P = build_polytope(J)
    ineqs = [(f.coefficients, f.rhs) for f in P.facets]
    for i in range(n):
        upper = tuple(-1 if j == i else 0 for j in range(n))
        ineqs.append((upper, -M))
    inside = polytope_volume(ineqs, n)
    return math.factorial(n) * (Fraction(M) ** n - inside)
