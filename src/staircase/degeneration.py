"""Degenerations of polynomial ideals to monomial ideals.

The pipeline deforms an ideal to the initial ideal of its tangent cone at
the origin; colength is preserved and the diagonal entry value mu can only
grow, so the monomial side yields certified upper bounds for mu of the
original ideal.  A common monomial factor is split off first, once per call
on the integer term maps of the generators, and carried through the
degeneration unchanged, which is what makes ideals like x2^2 * (zero-dimensional
part) tractable.  The truncations take those maps: nothing here builds a
RationalPolynomial.

The mu bound runs a family of trials, each an order and a shear.  Shears
act on integer term maps too (polynomials.substitute_linear), and each
distinct trial runs once per call; see mu_upper_bound_details.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import factorial

from .errors import ConsistencyError, NotZeroDimensionalError, ideal_shape
from .ideals import Exponent, MonomialIdeal, colength, exp_min, exp_sub, shift_ideal
from .macaulay import DEFAULT_BUDGET, TruncationData, certify_truncation, initial_ideal_pivots, truncation_at
from .polynomials import MonomialOrder, PolyIdeal, Terms, default_order, substitute_linear
from .polytope import compute_mu


def _split_content(gens: tuple[Terms, ...]) -> tuple[Exponent, tuple[Terms, ...]]:
    """Largest x^c dividing every term map of gens, and the maps over x^c
    (gens itself when c = 0).  A non-monomial common factor stays in the
    quotient, whose certification then fails downstream."""
    content = None
    for g in gens:
        for e in g:
            content = e if content is None else exp_min(content, e)
    assert content is not None
    if not any(content):
        return content, gens
    return content, tuple({exp_sub(e, content): c for e, c in g.items()} for g in gens)


@dataclass(frozen=True)
class LengthCheck:
    l_orig: int
    l_initial: int
    equal: bool


def _require_finite_length(n: int, content: tuple[int, ...]) -> None:
    """A nonzero monomial content x^c puts the ideal inside some (x_i), which
    is not m-primary once n >= 2; in one variable x^c is a power of m."""
    if n >= 2 and any(content):
        raise NotZeroDimensionalError(
            f"the monomial factor x^{list(content)} makes the length at the origin infinite"
        )


@dataclass(frozen=True)
class TangentCone:
    """The tangent-cone degeneration of an ideal, from one certification of
    its content-free part."""

    content: tuple[int, ...]
    truncation: TruncationData  # of the content-free part
    initial: MonomialIdeal  # initial ideal of the tangent cone, content shifted back

    def length_check(self) -> LengthCheck:
        """Length at the origin before and after degeneration; they must agree.

        Before: the truncation rank of the content-free part, plus the
        content in one variable, where length(x^c J) = c + length(J).  After:
        the colength of the monomial ideal.  A mismatch on exact data means a
        bug in one of the two pipelines, so it raises ConsistencyError rather
        than returning quietly.
        """
        _require_finite_length(self.initial.n, self.content)
        l_orig = sum(self.content) + self.truncation.local_length
        l_initial = colength(self.initial)
        check = LengthCheck(l_orig=l_orig, l_initial=l_initial, equal=l_orig == l_initial)
        if not check.equal:
            raise ConsistencyError(
                f"degeneration changed the length: {l_orig} != {l_initial} on {ideal_shape(self.initial)}", report=check
            )
        return check


def _cone(n: int, content: tuple[int, ...], data: TruncationData) -> TangentCone:
    inner = MonomialIdeal(n, data.pivot_exponents)
    return TangentCone(content, data, shift_ideal(inner, content) if any(content) else inner)


def tangent_cone(I: PolyIdeal, order: MonomialOrder | None = None, budget: int = DEFAULT_BUDGET) -> TangentCone:
    """Monomial degeneration: split the monomial content, degenerate the
    zero-dimensional part to the initial ideal of its tangent cone, shift back.

    Raises NotZeroDimensionalError when no maximal-ideal power can be
    certified inside the content-free part within the budget.
    """
    content, part = _split_content(I.integer_generators)
    return _cone(I.n, content, certify_truncation(I.n, part, order or default_order("grevlex", I.n), budget))


def tangent_cone_initial(I: PolyIdeal, order: MonomialOrder | None = None, budget: int = DEFAULT_BUDGET) -> MonomialIdeal:
    """Initial ideal of the tangent cone of I; see tangent_cone."""
    return tangent_cone(I, order, budget).initial


def initial_ideal_truncated(I: PolyIdeal, order: MonomialOrder, budget: int = DEFAULT_BUDGET) -> MonomialIdeal:
    """Initial ideal of I via the truncation oracle (degree-compatible orders).

    Independent of Buchberger's algorithm; for ideals supported at the
    origin, both must produce the same monomial ideal.
    """
    return initial_ideal_pivots(I.n, I.integer_generators, order, budget)


def check_length_preservation(I: PolyIdeal, order: MonomialOrder | None = None, budget: int = DEFAULT_BUDGET) -> LengthCheck:
    """TangentCone.length_check of I.  A monomial factor in n >= 2 variables
    raises NotZeroDimensionalError before any truncation runs."""
    _require_finite_length(I.n, _split_content(I.integer_generators)[0])
    return tangent_cone(I, order, budget).length_check()


def _shear_matrix(rng: random.Random, n: int) -> list[list[int]]:
    """Lower-triangular unimodular change with small integer entries."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(1, n):
        for j in range(i):
            m[i][j] = rng.randint(-3, 3)
    return m


def _base_trials(n: int) -> list[tuple[str, MonomialOrder]]:
    perms = list(permutations(range(n))) if n <= 3 else [tuple(range(n)), tuple(reversed(range(n)))]
    trials = []
    for kind in ("grevlex", "lex"):
        for p in perms:
            trials.append((f"{kind} priority={p}", MonomialOrder(kind, priority=p)))  # type: ignore[arg-type]
    return trials


def least_certified_mu(details: list[tuple[str, Fraction | None]]) -> Fraction:
    """The smallest mu among the trials that certified, an upper bound for
    mu(I); raises NotZeroDimensionalError when none did."""
    values = [mu for _, mu in details if mu is not None]
    if not values:
        raise NotZeroDimensionalError(
            "no degeneration trial certified a zero-dimensional content-free part"
        )
    return min(values)


def _image_content(matrix: list[list[int]], content: tuple[int, ...]) -> tuple[int, ...]:
    """The monomial content of phi(x^c), for the shear phi: x_i -> row i.

    phi(x_i) is x_i when row i has no nonzero off-diagonal entry, and
    otherwise a linear form with at least two terms, whose content is 1; the
    x_k-adic order is additive, so contents of products add.
    """
    return tuple(0 if any(v for j, v in enumerate(row) if j != i) else c for i, (row, c) in enumerate(zip(matrix, content)))


def _is_identity(matrix: list[list[int]]) -> bool:
    return all(v == (i == j) for i, row in enumerate(matrix) for j, v in enumerate(row))


def _check_length_bound(n: int, length: int, mu: Fraction, label: str, I: PolyIdeal) -> None:
    """The paper's length bound on one certified trial, in integers.

    The trial's monomial initial ideal has the input's length l and the
    trial's mu_t, and the bound for monomial ideals gives l > n^n mu_t^n / n!
    for n >= 2 (l >= mu_t for n = 1, and l = mu_t = 0 for the unit ideal).
    Since 1/lct(I) <= mu_t, this is the paper's l(O/I) >= n^n / (n! lct(I)^n).
    """
    lhs, rhs = length * mu.denominator**n * factorial(n), n**n * mu.numerator**n
    if lhs < rhs or (lhs == rhs and n >= 2 and mu):
        raise ConsistencyError(f"{label} broke the length bound l > n^n mu^n / n! on {ideal_shape(I)}")


def mu_upper_bound_details(
    I: PolyIdeal, trials: int = 8, seed: int = 0, budget: int = DEFAULT_BUDGET
) -> list[tuple[str, Fraction | None]]:
    """Per-trial mu values (None when the trial's certificate failed).

    Every trial is an order and a shear phi; the base orders take the
    identity.  A trial runs once per call: it is keyed by its order and its
    shear rows, an identity shear keyed as its base order (the grevlex
    default order is always a base order), and a repeat reports the first
    run's mu under its own label.  A shear runs on the integer term maps of
    the generators (substitute_linear), and its content is split off the
    maps, which go straight into the truncation.

    Write I = x^c P with P content-free.  phi maps m onto m, so m^N lies in
    P exactly when it lies in phi(P), with the same truncation rank; and
    phi(I) = phi(x^c) phi(P) has content-free part u phi(P) / x^b, with
    u = phi(x^c) over its content and x^b the content of phi(P).  The first
    trial searches P's N once.

    * P certified: b = 0.  If phi fixes every x_i with c_i > 0 (the row
      condition, which the identity meets), u = 1 and the trial's part is
      phi(P); otherwise u lies in a proper principal ideal and the part
      never certifies.  Every other distinct trial gets one truncation, at
      P's N, and a disagreement with that raises ConsistencyError.
    * P not certified: when b = 0 the trial's part lies in phi(P), which
      does not certify either, so no truncation runs.  A shear that makes a
      factor of P monomial (b != 0) searches its own N.

    Each distinct certified trial of finite length is checked against the
    paper's length bound (_check_length_bound), which costs no truncation.
    """
    rng = random.Random(seed)
    grevlex = default_order("grevlex", I.n)
    runs = [(label, order, None) for label, order in _base_trials(I.n)]
    for t in range(trials):
        m = _shear_matrix(rng, I.n)
        runs.append((f"shear[{t}] rows={m}", grevlex, None if _is_identity(m) else tuple(map(tuple, m))))
    content, primitive = _split_content(I.integer_generators)
    searched = (runs[0][1], None)  # the first base order, whose N is searched
    try:
        first = certify_truncation(I.n, primitive, searched[0], budget)
    except NotZeroDimensionalError:
        first = None
    mus: dict[tuple[MonomialOrder, tuple | None], Fraction | None] = {}
    out = []
    for label, order, rows in runs:
        trial = (order, rows)
        if trial not in mus:
            if rows is None:
                part_content, part, image = content, primitive, content
            else:
                part_content, part = _split_content(tuple(substitute_linear(g, rows) for g in I.integer_generators))
                image = _image_content(rows, content)
            if first is not None:
                fixed = image == content
                data = first if trial == searched else truncation_at(I.n, part, first.N, order)
                if data.certified != fixed or (fixed and data.rank != first.rank):
                    raise ConsistencyError(
                        f"{label} changed the truncation at N = {first.N}: certified {data.certified} with rank "
                        f"{data.rank}, expected certified {fixed} with rank {first.rank} on {ideal_shape(I)}"
                    )
            elif part_content == image:
                data = None
            else:
                try:
                    data = certify_truncation(I.n, part, order, budget)
                except NotZeroDimensionalError:
                    data = None
            mus[trial] = None
            if data is not None and data.certified:
                mus[trial] = compute_mu(_cone(I.n, part_content, data).initial).mu
                if I.n == 1 or not any(part_content):  # a monomial factor in n >= 2 variables makes the length infinite
                    _check_length_bound(I.n, data.local_length + sum(part_content), mus[trial], label, I)
        out.append((label, mus[trial]))
    return out
