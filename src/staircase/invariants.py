"""Multiplicity and the inequality checkers relating length, covolume and the
diagonal entry value, including the sharper two-variable bounds for ideals
with a monomial factor.

Every checker computes both sides of each inequality exactly and returns a
report; a failed check on exact data can only mean an implementation bug,
so by default the checkers raise ConsistencyError with the offending report
attached.

One boundary case is handled deliberately: in a single variable every
zero-dimensional monomial ideal is a pure power, for which length, covolume
and the diagonal bound all coincide.  The strict forms of the length bounds
therefore hold only for n >= 2, and the checkers enforce strictness only
there; the reports still record both sides exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, DimensionError, DomainError, ResourceError, ideal_shape
from .ideals import (
    MonomialIdeal,
    colength,
    factor_out_gcd,
    ideal_product,
    is_power_of_maximal,
    is_zero_dimensional,
)
from .polytope import build_polytope, compute_mu, covolume


def multiplicity(J: MonomialIdeal) -> Fraction:
    """Samuel multiplicity of a zero-dimensional monomial ideal: the covolume, which raises DimensionError otherwise."""
    return covolume(J)


def multiplicity_limit_estimate(J: MonomialIdeal, t_max: int) -> tuple[Fraction, ...]:
    """The sequence n! * colength(J^t) / t^n for t = 1..t_max.

    Converges to the multiplicity from above.  Colength is exact at any size;
    t_max is capped at 8 because the generator count of J^t grows quickly.
    """
    if not is_zero_dimensional(J):
        raise DimensionError(f"limit estimate needs a zero-dimensional ideal, got {ideal_shape(J)}")
    if t_max < 1:
        raise DomainError("t_max must be >= 1")
    if t_max > 8:
        raise ResourceError("t_max exceeds the supported limit of 8")
    n = J.n
    out = []
    power = J
    for t in range(1, t_max + 1):
        if t > 1:
            power = ideal_product(power, J)
        out.append(Fraction(math.factorial(n) * colength(power), t**n))
    return tuple(out)


@dataclass(frozen=True)
class ZeroDimReport:
    """All invariants of one zero-dimensional ideal plus both sides of each bound."""

    ideal: MonomialIdeal
    mu: Fraction
    length: int
    covol: Fraction
    mult: Fraction
    length_volume_lhs: Fraction  # n! * length
    length_volume_rhs: Fraction  # covolume
    length_diagonal_lhs: Fraction  # length
    length_diagonal_rhs: Fraction  # n^n mu^n / n!
    mult_diagonal_lhs: Fraction  # multiplicity
    mult_diagonal_rhs: Fraction  # n^n mu^n
    closure_equality: bool
    closure_power_q: int | None

    @property
    def n(self) -> int:
        return self.ideal.n

    def violations(self) -> tuple[str, ...]:
        """Failed checks, enforcing strictness only where it is a theorem (n >= 2)."""
        bad = []
        strict = self.n >= 2
        if strict:
            if not self.length_volume_lhs > self.length_volume_rhs:
                bad.append("length_volume_strict")
            if not self.length_diagonal_lhs > self.length_diagonal_rhs:
                bad.append("length_diagonal_strict")
        else:
            if not self.length_volume_lhs >= self.length_volume_rhs:
                bad.append("length_volume")
            if not self.length_diagonal_lhs >= self.length_diagonal_rhs:
                bad.append("length_diagonal")
        if not self.mult_diagonal_lhs >= self.mult_diagonal_rhs:
            bad.append("mult_diagonal")
        if self.closure_equality != (self.closure_power_q is not None):
            bad.append("closure_biconditional")
        if self.closure_power_q is not None and Fraction(self.closure_power_q) != self.n * self.mu:
            bad.append("closure_power_value")
        return tuple(bad)


def verify_zero_dim(J: MonomialIdeal, *, fatal: bool = True) -> ZeroDimReport:
    """Compute every invariant of a zero-dimensional ideal and check the bounds.

    With fatal=True (the default) a failed check raises ConsistencyError with
    the report attached, since the underlying inequalities are theorems.
    """
    if J.is_unit:
        raise DomainError("the unit ideal has no length bounds; pass a proper ideal")
    if not is_zero_dimensional(J):
        raise DimensionError(f"verify_zero_dim needs a zero-dimensional ideal, got {ideal_shape(J)}")
    n = J.n
    mu = compute_mu(J).mu
    length = colength(J)
    covol = covolume(J)
    mult = covol  # the multiplicity of a zero-dimensional ideal is its covolume
    diag = Fraction(n) ** n * mu**n
    q = is_power_of_maximal(J)
    report = ZeroDimReport(
        ideal=J,
        mu=mu,
        length=length,
        covol=covol,
        mult=mult,
        length_volume_lhs=Fraction(math.factorial(n) * length),
        length_volume_rhs=covol,
        length_diagonal_lhs=Fraction(length),
        length_diagonal_rhs=diag / math.factorial(n),
        mult_diagonal_lhs=mult,
        mult_diagonal_rhs=diag,
        closure_equality=(mult == diag),
        closure_power_q=q,
    )
    if fatal and report.violations():
        raise ConsistencyError(
            f"invariant checks failed on {ideal_shape(J)}: {', '.join(report.violations())}", report=report
        )
    return report


@dataclass(frozen=True)
class Codim2Report:
    """Two-variable factor analysis: I = x1^b1 x2^b2 * primitive, with the bounds
    tying the factor multiplicity and the primitive multiplicity to mu.

    b1 <= b2 are the sorted factor exponents (the sharper bound is strongest
    with the larger one second); b_vector keeps the actual orientation, which
    the boundary closure formula needs.
    """

    ideal: MonomialIdeal
    b1: int
    b2: int
    b_vector: tuple[int, int]
    factor_mult: int  # b1 + b2
    mu: Fraction
    primitive_length: int
    primitive_mult: Fraction
    primitive_length_lhs: Fraction  # l(R / primitive)
    primitive_length_rhs: Fraction  # 2 (mu - b1)(mu - b2)
    mult_bound_lhs: Fraction  # 4 mu * factor_mult + e(primitive)
    mult_bound_rhs: Fraction  # 4 mu^2
    sharp_bound_lhs: Fraction  # 4 mu * factor_mult - 4 b1 b2 + e(primitive)
    sharp_bound_rhs: Fraction  # 4 mu^2
    sharp_equality: bool
    boundary_closure_ok: bool | None

    def violations(self) -> tuple[str, ...]:
        bad = []
        if not self.primitive_length_lhs >= self.primitive_length_rhs:
            bad.append("primitive_length_bound")
        if not self.mult_bound_lhs >= self.mult_bound_rhs:
            bad.append("mult_bound")
        if not self.sharp_bound_lhs >= self.sharp_bound_rhs:
            bad.append("sharp_bound")
        if self.sharp_bound_lhs - self.sharp_bound_rhs > self.mult_bound_lhs - self.mult_bound_rhs:
            bad.append("sharp_bound_not_sharper")
        if self.sharp_equality and self.boundary_closure_ok is not True:
            bad.append("boundary_closure")
        return tuple(bad)


def _boundary_closure_holds(primitive: MonomialIdeal, b_vec: tuple[int, int], mu: Fraction) -> bool:
    """Check closure(I) = x^b * closure((x1^(2mu-2b1), x2^(2mu-2b2))) for
    I = x^b * primitive in the equality case, as closure(primitive) = the
    corner's closure (x^b translates a closure); 2 mu must be an integer.
    A closure is the set of lattice points of the Newton polyhedron, whose
    vertices are generators, so closures agree exactly when polyhedra do; the
    facets are stored primitive and sorted, so comparing facets decides it."""
    two_mu = 2 * mu
    if two_mu.denominator != 1:
        return False
    k = tuple(int(two_mu) - 2 * bi for bi in b_vec)
    if any(ki < 0 for ki in k):
        return False
    corner = MonomialIdeal(2, ((k[0], 0), (0, k[1])))
    return build_polytope(corner).facets == build_polytope(primitive).facets


def verify_codim2(I: MonomialIdeal, *, fatal: bool = True) -> Codim2Report:
    """Factor a two-variable monomial ideal and check the codimension-two bounds."""
    if I.n != 2:
        raise DimensionError(f"verify_codim2 needs an ideal in two variables, got n={I.n}")
    fac = factor_out_gcd(I)
    b_vec = (fac.b[0], fac.b[1])
    b1, b2 = sorted(b_vec)
    mu = compute_mu(I).mu
    prim_len = colength(fac.primitive)
    e_prim = multiplicity(fac.primitive)
    mult_f = b1 + b2
    sharp_lhs = 4 * mu * mult_f - Fraction(4 * b1 * b2) + e_prim
    rhs = 4 * mu**2
    sharp_eq = sharp_lhs == rhs
    boundary = _boundary_closure_holds(fac.primitive, b_vec, mu) if sharp_eq else None
    report = Codim2Report(
        ideal=I,
        b1=b1,
        b2=b2,
        b_vector=b_vec,
        factor_mult=mult_f,
        mu=mu,
        primitive_length=prim_len,
        primitive_mult=e_prim,
        primitive_length_lhs=Fraction(prim_len),
        primitive_length_rhs=2 * (mu - b1) * (mu - b2),
        mult_bound_lhs=4 * mu * mult_f + e_prim,
        mult_bound_rhs=rhs,
        sharp_bound_lhs=sharp_lhs,
        sharp_bound_rhs=rhs,
        sharp_equality=sharp_eq,
        boundary_closure_ok=boundary,
    )
    if fatal and report.violations():
        raise ConsistencyError(
            f"codimension-2 checks failed on {ideal_shape(I)}: {', '.join(report.violations())}", report=report
        )
    return report


def _mix(*parts: int) -> int:
    key = 0x9E3779B97F4A7C15
    for p in parts:
        key = (key * 0x100000001B3 + (p & 0xFFFFFFFFFFFFFFFF)) & 0xFFFFFFFFFFFFFFFF
    return key


def random_ideal(seed: int, n: int, max_exp: int, max_gens: int, force_zero_dim: bool) -> MonomialIdeal:
    """Deterministic pseudo-random monomial ideal.

    All generator exponents are <= max_exp componentwise and never the zero
    vector.  With force_zero_dim, a pure power of each variable is included
    and random extras fill up to max_gens candidates; otherwise 1..max_gens
    random candidates are drawn.  Minimalization may shrink the final count.
    """
    if n < 1 or max_exp < 1 or max_gens < 1:
        raise DomainError("random_ideal needs n, max_exp, max_gens >= 1")
    rng = random.Random(_mix(seed, n, max_exp, max_gens, int(force_zero_dim)))
    gens: list[tuple[int, ...]] = []
    if force_zero_dim:
        for i in range(n):
            d = rng.randint(1, max_exp)
            gens.append(tuple(d if j == i else 0 for j in range(n)))
        extras = rng.randint(0, max(0, max_gens - n))
    else:
        extras = rng.randint(1, max_gens)
    for _ in range(extras):
        while True:
            cand = tuple(rng.randint(0, max_exp) for _ in range(n))
            if any(cand):
                break
        gens.append(cand)
    return MonomialIdeal(n, tuple(gens))


def random_corpus(seed: int, count: int, dims, max_exp: int, max_gens: int, zero_dim: bool) -> list[MonomialIdeal]:
    """Seeded corpus of random_ideal draws, ideal i in dims[i % len(dims)]
    variables; zero_dim forces every draw zero-dimensional."""
    return [random_ideal(_mix(seed, i), dims[i % len(dims)], max_exp, max_gens, zero_dim) for i in range(count)]


def zero_dim_corpus(seed: int, count: int, dims=(1, 2, 3, 4), max_exp: int = 10, max_gens: int = 8) -> list[MonomialIdeal]:
    """Seeded corpus of zero-dimensional ideals cycling through the given dimensions."""
    return random_corpus(seed, count, dims, max_exp, max_gens, True)


def codim2_corpus(seed: int, count: int, max_exp: int = 10, max_gens: int = 8) -> list[MonomialIdeal]:
    """Seeded corpus of two-variable ideals, gcd parts included by construction chance."""
    return random_corpus(seed, count, (2,), max_exp, max_gens, False)
