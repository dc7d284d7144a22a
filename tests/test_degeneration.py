"""Groebner bases, the truncation oracle, and the degeneration pipeline."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mix, random_origin_ideal
from staircase import (
    ConsistencyError,
    FormatError,
    MonomialIdeal,
    MonomialOrder,
    NotZeroDimensionalError,
    PolyIdeal,
    RationalPolynomial,
    check_length_preservation,
    compute_mu,
    colength,
    default_order,
    initial_ideal,
    initial_ideal_truncated,
    least_certified_mu,
    tangent_cone_initial,
)
from staircase.degeneration import _base_trials, _shear_matrix, _split_content, mu_upper_bound_details
from staircase.groebner import buchberger, reduce_full
from staircase.ideals import divides
from staircase.macaulay import certify_truncation
from staircase.polynomials import substitute_linear

F = Fraction


def P(n, *terms):
    """Polynomial from (coeff, exponent) pairs."""
    acc = {}
    for c, e in terms:
        acc[tuple(e)] = acc.get(tuple(e), F(0)) + F(c)
    return RationalPolynomial(n, acc)


def product(f, g):
    """f * g, for polynomials with Fraction coefficients."""
    acc = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, F(0)) + c1 * c2
    return RationalPolynomial(f.n, acc)


def power(I, t):
    """The ideal I^t, generated by all t-fold products of generators."""
    gens = I.gens
    for _ in range(t - 1):
        gens = tuple(product(f, g) for f in gens for g in I.gens)
    return PolyIdeal(I.n, gens)


BOUNDARY_PRIMITIVE = PolyIdeal(2, (P(2, (1, (6, 0))), P(2, (1, (0, 2)), (1, (2, 1)))))
BOUNDARY_IDEAL = PolyIdeal(2, (P(2, (1, (6, 2))), P(2, (1, (0, 4)), (1, (2, 3)))))


def exp_strategy(n, d=4):
    return st.tuples(*[st.integers(0, d)] * n).filter(lambda e: sum(e) <= d)


class TestMonomialOrders:
    @pytest.mark.parametrize("order", [
        MonomialOrder("lex"),
        MonomialOrder("lex", priority=(1, 0)),
        MonomialOrder("grevlex"),
        MonomialOrder("grevlex", priority=(1, 0)),
        MonomialOrder("weighted", weights=(2, 3)),
    ])
    @given(a=exp_strategy(2), b=exp_strategy(2), c=exp_strategy(2))
    def test_total_multiplicative_global(self, order, a, b, c):
        ka, kb = order.key(a), order.key(b)
        assert (ka == kb) == (a == b)
        if ka < kb:  # multiplicative: translation preserves comparisons
            shifted_a = tuple(x + y for x, y in zip(a, c))
            shifted_b = tuple(x + y for x, y in zip(b, c))
            assert order.key(shifted_a) < order.key(shifted_b)
        assert order.key((0, 0)) <= ka  # global: 1 is the smallest monomial

    def test_grevlex_classic_comparison(self):
        order = MonomialOrder("grevlex")
        # same degree: the smaller exponent on the least variable wins
        assert order.key((2, 0, 1)) > order.key((1, 1, 1))
        assert order.key((3, 0, 0)) > order.key((1, 2, 0))
        # degree dominates everything else
        assert order.key((0, 0, 4)) > order.key((3, 0, 0))

    def test_degree_compatibility(self):
        assert MonomialOrder("grevlex").is_degree_compatible(3)
        assert not MonomialOrder("lex").is_degree_compatible(2)
        assert MonomialOrder("lex").is_degree_compatible(1)
        assert MonomialOrder("weighted", weights=(2, 2)).is_degree_compatible(2)
        assert not MonomialOrder("weighted", weights=(1, 2)).is_degree_compatible(2)


class TestBuchberger:
    def test_coprime_leading_terms(self):
        order = MonomialOrder("lex", priority=(1, 0))  # x2 before x1
        assert initial_ideal(BOUNDARY_PRIMITIVE, order) == MonomialIdeal(2, [(6, 0), (0, 2)])

    def test_monomial_ideal_fixed(self):
        J = MonomialIdeal(2, [(3, 1), (0, 4)])
        assert initial_ideal(PolyIdeal.from_monomial(J), MonomialOrder("grevlex")) == J

    def test_linear_form(self):
        I = PolyIdeal(2, (P(2, (1, (1, 0)), (1, (0, 1))),))
        assert initial_ideal(I, MonomialOrder("lex")) == MonomialIdeal(2, [(1, 0)])

    def test_reduction_gives_zero_on_members(self):
        order = default_order("grevlex", 2)
        gb = list(buchberger(BOUNDARY_PRIMITIVE.integer_generators, order))
        for f in BOUNDARY_PRIMITIVE.gens:
            assert reduce_full(f.integer_terms(), gb, order.key) == {}
        # products of members reduce to zero as well
        f, g = BOUNDARY_PRIMITIVE.gens
        assert reduce_full(product(f, g).integer_terms(), gb, order.key) == {}

    def test_reduced_basis_is_canonical(self):
        order = default_order("grevlex", 2)
        gb1 = buchberger(BOUNDARY_PRIMITIVE.integer_generators, order)
        gb2 = buchberger(tuple(reversed(BOUNDARY_PRIMITIVE.integer_generators)), order)
        assert gb1 == gb2

    def test_classic_twist(self):
        # (x - y^2, y^3) under grevlex degenerates to the maximal ideal squared
        I = PolyIdeal(2, (P(2, (1, (1, 0)), (-1, (0, 2))), P(2, (1, (0, 3)))))
        assert initial_ideal(I, MonomialOrder("grevlex")) == MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])

    def test_weighted_order_leading_term(self):
        I = PolyIdeal(2, (P(2, (1, (1, 0)), (1, (0, 1))),))
        heavy_x = MonomialOrder("weighted", weights=(3, 1))
        heavy_y = MonomialOrder("weighted", weights=(1, 3))
        assert initial_ideal(I, heavy_x) == MonomialIdeal(2, [(1, 0)])
        assert initial_ideal(I, heavy_y) == MonomialIdeal(2, [(0, 1)])

    def test_equal_weights_accepted_by_truncated_oracle(self):
        order = MonomialOrder("weighted", weights=(2, 2), priority=(1, 0))
        assert initial_ideal_truncated(BOUNDARY_PRIMITIVE, order) == initial_ideal(BOUNDARY_PRIMITIVE, order)

    def test_order_keys_computed_once_per_exponent(self, monkeypatch):
        calls = Counter()
        real = MonomialOrder.key

        def counted(self, exp):
            calls[exp] += 1
            return real(self, exp)

        for i in range(6):
            n = 2 if i % 2 == 0 else 3
            I = random_origin_ideal(mix(4242, i), n)
            order = default_order("grevlex", n)
            expected = buchberger(I.integer_generators, order)
            calls.clear()
            monkeypatch.setattr(MonomialOrder, "key", counted)
            assert buchberger(I.integer_generators, order) == expected
            monkeypatch.undo()
            assert calls and max(calls.values()) == 1, i

    def test_pair_budget_exhaustion(self, monkeypatch):
        from staircase import ResourceError, groebner

        I = PolyIdeal(2, (P(2, (1, (1, 0)), (-1, (0, 2))), P(2, (1, (0, 3)))))
        monkeypatch.setattr(groebner, "MAX_S_PAIRS", 0)
        with pytest.raises(ResourceError):
            initial_ideal(I, MonomialOrder("grevlex"))


PAIR_ORDERS = {
    "grevlex": lambda n: default_order("grevlex", n),
    "lex": lambda n: default_order("lex", n),
    "weighted": lambda n: MonomialOrder("weighted", weights=(2, 1, 3)[:n]),
}


def translate(I: PolyIdeal, t: tuple[int, ...]) -> PolyIdeal:
    """I under x -> x + t, an ideal supported at the points of I's zero set moved by -t."""
    gens = []
    for g in I.gens:
        acc = {}
        for e, c in g.terms.items():
            for k in itertools.product(*(range(ei + 1) for ei in e)):
                coeff = c * math.prod(math.comb(ei, ki) * ti ** (ei - ki) for ei, ki, ti in zip(e, k, t))
                acc[k] = acc.get(k, 0) + coeff
        gens.append(RationalPolynomial(I.n, acc))
    return PolyIdeal(I.n, tuple(gens))


origin_ideals = st.builds(random_origin_ideal, st.integers(0, 10**6), st.integers(2, 3))
off_origin_ideals = st.builds(
    lambda I, t: translate(I, t[: I.n]), origin_ideals, st.tuples(*[st.sampled_from([-1, 1, 2])] * 3)
)


class TestPairCriteria:
    """The Gebauer-Moeller criteria keep the basis a Groebner basis; the
    checks below need no second implementation."""

    @given(
        ideal=st.one_of(origin_ideals, off_origin_ideals),
        kind=st.sampled_from(sorted(PAIR_ORDERS)),
    )
    def test_basis_is_reduced_and_closed_under_s_polynomials(self, ideal, kind):
        from staircase.groebner import s_polynomial

        order = PAIR_ORDERS[kind](ideal.n)
        basis = list(buchberger(ideal.integer_generators, order))
        leads = [le for le, _ in basis]
        for le, g in basis:  # primitive, with a positive leading coefficient
            assert le == max(g, key=order.key) and g[le] > 0 and math.gcd(*g.values()) == 1
            assert not any(divides(l2, e) for l2 in leads if l2 != le for e in g)
        for f in ideal.integer_generators:
            assert reduce_full(f, basis, order.key) == {}
        for i in range(len(basis)):
            for j in range(i):
                assert reduce_full(s_polynomial(basis[i], basis[j]), basis, order.key) == {}

    def test_criteria_form_fewer_s_polynomials(self, monkeypatch):
        # the twelve origin ideals formed 97 S-polynomials when only pairs with
        # coprime leading terms were skipped
        from staircase import groebner

        calls = []
        real = groebner.s_polynomial

        def counted(f, g):
            calls.append((f[0], g[0]))
            return real(f, g)

        monkeypatch.setattr(groebner, "s_polynomial", counted)
        for i in range(12):
            I = random_origin_ideal(mix(4242, i), 2 if i % 2 == 0 else 3)
            buchberger(I.integer_generators, default_order("grevlex", I.n))
        assert len(calls) == 42


def sympy_matches(sp, I, kind):
    """buchberger agrees with sympy's reduced basis of I, both made monic
    (ours from primitive integer terms)."""
    n = I.n
    order = default_order(kind, n)
    syms = [sp.Symbol(f"x{j}") for j in range(n)]
    ordered = [syms[j] for j in reversed(range(n))]
    prio = tuple(reversed(range(n)))

    def to_expr(g):
        e = 0
        for exp, c in g.terms.items():
            t = sp.Rational(c.numerator, c.denominator)
            for j, ej in enumerate(exp):
                t *= syms[j] ** ej
            e += t
        return sp.expand(e)

    def monic_terms(p):
        terms = {}
        for mono, coeff in zip(p.monoms(), p.coeffs()):
            e = [0] * n
            for k, ek in enumerate(mono):
                e[prio[k]] = ek
            q = sp.Rational(coeff) / p.LC(order=kind)
            terms[tuple(e)] = F(int(q.p), int(q.q))
        return tuple(sorted(terms.items()))

    gb = sp.groebner([to_expr(g) for g in I.gens], *ordered, order=kind)
    theirs = {monic_terms(p) for p in gb.polys}
    mine = {tuple(sorted((e, F(c, g[le])) for e, c in g.items())) for le, g in buchberger(I.integer_generators, order)}
    return mine == theirs


class TestExternalCrossValidation:
    def test_reduced_bases_match_sympy(self):
        # the reduced basis is unique per order, so set equality against an
        # unrelated implementation is the strongest possible cross-check;
        # the reweighted ideals have leading coefficients other than 1
        sp = pytest.importorskip("sympy")
        for i in range(20):
            I = random_origin_ideal(mix(12321, i), 2 if i % 2 == 0 else 3)
            reweighted = PolyIdeal(
                I.n, tuple(P(I.n, *((c * (2 + (e[0] + 2 * e[-1]) % 5), e) for e, c in g.terms.items())) for g in I.gens)
            )
            for J in (I, reweighted):
                for kind in ("grevlex", "lex"):
                    assert sympy_matches(sp, J, kind), (kind, i)


class TestIntegerCore:
    @pytest.mark.parametrize("exp", [(1.7, 0), (True, 2), (-1, 2), (1, 2, 3)])
    def test_exponents_validated(self, exp):
        with pytest.raises(FormatError):
            RationalPolynomial(2, {exp: 1})

    @pytest.mark.parametrize("coeff", [0.1, True, "1/3"])
    def test_coefficients_validated(self, coeff):
        with pytest.raises(FormatError):
            RationalPolynomial(2, {(1, 0): coeff})
        with pytest.raises(FormatError):
            RationalPolynomial.monomial(2, (1, 0), coeff)

    def test_exact_coefficients_accepted(self):
        f = RationalPolynomial(2, {(1, 0): F(1, 3), (0, 1): 2})
        assert f.terms == {(1, 0): F(1, 3), (0, 1): F(2)}
        assert all(type(c) is Fraction for c in f.terms.values())
        assert RationalPolynomial.monomial(2, (1, 1), 2).terms == {(1, 1): F(2)}

    def test_certification_converts_each_generator_once(self, monkeypatch):
        I = random_origin_ideal(mix(4242, 3), 3)
        calls = []
        real = RationalPolynomial.integer_terms

        def counted(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(RationalPolynomial, "integer_terms", counted)
        truncations = _count_truncations(monkeypatch)
        certify_truncation(I.n, I.integer_generators, default_order("grevlex", I.n))
        assert len(truncations) > 1  # several N were tried
        assert len(calls) == len(I.gens)

    @given(
        coeffs=st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        exps=st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=4, max_size=4),
        m=st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3),
        point=st.tuples(*[st.integers(-4, 4)] * 3),
    )
    def test_substitute_linear_evaluates(self, coeffs, exps, m, point):
        f: dict = {}
        for c, e in zip(coeffs, exps):
            f[e] = f.get(e, 0) + c

        def value(g, x):
            return sum(c * math.prod(xi**ei for xi, ei in zip(x, e)) for e, c in g.items())

        image = [sum(m[i][k] * point[k] for k in range(3)) for i in range(3)]
        assert value(substitute_linear(f, m), point) == value(f, image)

    def test_pseudo_reduction_rescales_the_remainder(self):
        # y^2 + x modulo 2x + 1 is y^2 - 1/2 over Q; over Z, twice that
        g = {(1, 0): 2, (0, 0): 1}
        f = {(0, 2): 1, (1, 0): 1}
        assert reduce_full(f, [((1, 0), g)], MonomialOrder("grevlex").key) == {(0, 2): 2, (0, 0): -1}

    def test_fraction_coefficients_match_integer_multiple(self):
        for i in range(10):
            n = 2 if i % 2 == 0 else 3
            I = random_origin_ideal(mix(777, i), n)
            scales = [F(1, 2), F(-3, 7), F(5, 3), F(7)]
            halves = [RationalPolynomial(n, {e: s * c for e, c in g.terms.items()}) for g, s in zip(I.gens, scales * 2)]
            order = default_order("grevlex", n)
            gb = buchberger(tuple(h.integer_terms() for h in halves), order)
            assert gb == buchberger(I.integer_generators, order)
            assert all(g[le] > 0 and math.gcd(*g.values()) == 1 for le, g in gb)

    def test_polynomials_built_only_for_the_basis(self, monkeypatch):
        I = random_origin_ideal(mix(4242, 3), 3)
        built = []
        real = RationalPolynomial.__post_init__

        def counted(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(RationalPolynomial, "__post_init__", counted)
        J = initial_ideal(I, default_order("grevlex", 3))
        assert len(J.gens) > 1
        assert built == []  # the basis comes back as integer term maps

    def test_one_term_image_power_is_built_in_one_step(self):
        # a lower-triangular shear keeps x1's image x1, at any exponent
        a = 10**100
        assert substitute_linear({(a, 1): 1}, [[1, 0], [2, 1]]) == {(a + 1, 0): 2, (a, 1): 1}

    def test_buchberger_refuses_an_empty_ideal(self):
        with pytest.raises(FormatError, match="no nonzero generators"):
            buchberger(({},), MonomialOrder())

    def test_product_of_powers_is_charged_before_it_is_built(self):
        # x2^1999 and x3^61 map to powers of 2,000 and 1,953 terms, each within
        # the limit; their product of degree 2,060 is refused before it is built
        import time

        from staircase import ResourceError

        start = time.perf_counter()
        with pytest.raises(ResourceError, match="expand a term"):
            substitute_linear({(0, 1999, 61): 1}, [[1, 0, 0], [3, 1, 0], [-3, 2, 1]])
        assert time.perf_counter() - start < 1

    def test_product_charge_is_capped_by_the_monomials_of_its_degree(self):
        # (x1 + x2)^40 (x1 - x2)^60 has 41 * 61 = 2,501 term products but at
        # most 101 monomials of degree 100, so it is built
        f = substitute_linear({(40, 60): 1}, [[1, 1], [1, -1]])
        assert len(f) <= 101 and f[(100, 0)] == 1

    def test_priority_checked_at_construction(self):
        from staircase import FormatError

        for bad in [dict(kind="lex", priority=(0, 0)), dict(kind="grevlex", priority=(1, 2)), dict(kind="weighted")]:
            with pytest.raises(FormatError):
                MonomialOrder(**bad)


class TestTangentCone:
    def test_boundary_ideal_with_monomial_factor(self):
        assert tangent_cone_initial(BOUNDARY_IDEAL) == MonomialIdeal(2, [(6, 2), (0, 4)])

    def test_content_split(self):
        content, prim = _split_content(BOUNDARY_IDEAL.integer_generators)
        assert content == (0, 2)
        assert {tuple(sorted(g)) for g in prim} == {((6, 0),), ((0, 2), (2, 1))}

    def test_homogeneous_equals_initial(self):
        I = PolyIdeal(2, (P(2, (1, (2, 0)), (1, (1, 1))), P(2, (1, (0, 3)))))
        order = MonomialOrder("grevlex")
        assert tangent_cone_initial(I, order) == initial_ideal(I, order)

    def test_monomial_fixed(self):
        J = MonomialIdeal(2, [(6, 0), (0, 2)])
        assert tangent_cone_initial(PolyIdeal.from_monomial(J)) == J

    def test_unit_multiple_is_local(self):
        # x (1 + x) generates (x) in the local ring at the origin
        I = PolyIdeal(1, (P(1, (1, (1,)), (1, (2,))),))
        assert tangent_cone_initial(I) == MonomialIdeal(1, [(1,)])

    def test_principal_non_monomial_rejected(self):
        # a principal ideal with several lowest-form terms defines a curve,
        # so no maximal-ideal power fits and the certificate refuses
        g = P(2, (1, (2, 1)), (1, (1, 2)), (1, (4, 0)))
        with pytest.raises(NotZeroDimensionalError):
            tangent_cone_initial(PolyIdeal(2, (g,)), budget=8)

    def test_monomial_factor_handled(self):
        # (x y, x^2) = x (y, x): the content split makes this tractable
        I = PolyIdeal(2, (P(2, (1, (1, 1))), P(2, (1, (2, 0)))))
        assert tangent_cone_initial(I) == MonomialIdeal(2, [(1, 1), (2, 0)])

    def test_non_monomial_common_factor_rejected(self):
        # (x + y) (x, y^2) has a non-monomial factor: no maximal-ideal power fits
        I = PolyIdeal(
            2,
            (P(2, (1, (2, 0)), (1, (1, 1))), P(2, (1, (1, 2)), (1, (0, 3)))),
        )
        with pytest.raises(NotZeroDimensionalError):
            tangent_cone_initial(I, budget=10)


class TestLengthPreservation:
    def test_boundary_primitive_part(self):
        check = check_length_preservation(BOUNDARY_PRIMITIVE)
        assert check.l_orig == 12 == check.l_initial and check.equal

    def test_monomial_trivial(self):
        J = MonomialIdeal(2, [(4, 0), (1, 1), (0, 3)])
        check = check_length_preservation(PolyIdeal.from_monomial(J))
        assert check.l_orig == colength(J) == check.l_initial

    def test_linear_substitution(self):
        I = PolyIdeal(2, (P(2, (1, (1, 0)), (1, (0, 1))), P(2, (1, (0, 3)))))
        check = check_length_preservation(I)
        assert check.l_orig == 3 == check.l_initial

    def test_truncated_length_alone(self):
        assert certify_truncation(2, BOUNDARY_PRIMITIVE.integer_generators, default_order("grevlex", 2)).local_length == 12


class TestOracleEquivalence:
    def test_truncated_matches_buchberger(self):
        for i in range(30):
            n = 2 if i % 2 == 0 else 3
            I = random_origin_ideal(mix(4242, i), n)
            order = default_order("grevlex", n)
            assert initial_ideal_truncated(I, order) == initial_ideal(I, order)

    def test_length_preserved_on_corpus(self):
        for i in range(30):
            n = 2 if i % 2 == 0 else 3
            I = random_origin_ideal(mix(515, i), n)
            check = check_length_preservation(I)  # raises on mismatch
            assert check.equal

    def test_lex_rejected_by_truncated_oracle(self):
        from staircase import FormatError

        with pytest.raises(FormatError):
            initial_ideal_truncated(BOUNDARY_PRIMITIVE, MonomialOrder("lex"))

    def test_initial_products_nest(self):
        # in(I^s) in(I^t) is contained in in(I^(s+t)); small ideals keep the
        # power bases manageable for Buchberger
        from staircase import ideal_product

        order = default_order("grevlex", 2)
        samples = [
            PolyIdeal(2, (P(2, (1, (2, 0)), (1, (0, 3))), P(2, (1, (0, 2)), (-1, (1, 1))))),
            PolyIdeal(2, (P(2, (1, (2, 0))), P(2, (1, (0, 2)), (1, (2, 1))))),
            PolyIdeal(2, (P(2, (1, (3, 0)), (2, (1, 2))), P(2, (1, (0, 2))))),
        ]
        for I in samples:
            ins = {t: initial_ideal(power(I, t), order) for t in (1, 2, 3, 4)}
            for s, t in [(1, 1), (1, 2), (2, 2)]:
                prod = ideal_product(ins[s], ins[t])
                assert ins[s + t].contains_ideal(prod)


class TestMuUpperBound:
    def test_boundary_ideal_attains_three(self):
        assert least_certified_mu(mu_upper_bound_details(BOUNDARY_IDEAL, trials=8, seed=0)) == 3

    def test_monomial_input_exact(self):
        J = MonomialIdeal(2, [(6, 0), (0, 2)])
        assert least_certified_mu(mu_upper_bound_details(PolyIdeal.from_monomial(J))) == compute_mu(J).mu

    def test_weakly_decreasing_in_trials(self):
        I = random_origin_ideal(99, 2)
        b2 = least_certified_mu(mu_upper_bound_details(I, trials=2, seed=5))
        b6 = least_certified_mu(mu_upper_bound_details(I, trials=6, seed=5))
        assert b6 <= b2

    def test_bound_dominates_true_value_on_monomial_corpus(self):
        # degenerations of a monomial ideal can only increase mu
        from staircase.invariants import random_ideal

        for i in range(6):
            J = random_ideal(seed=60 + i, n=2, max_exp=4, max_gens=4, force_zero_dim=True)
            bound = least_certified_mu(mu_upper_bound_details(PolyIdeal.from_monomial(J), trials=3, seed=1))
            assert bound == compute_mu(J).mu

    def test_monomial_factor_bounded(self):
        # principal x y (1 + x y): locally the ideal (x y), whose entry value is 1
        I = PolyIdeal(2, (P(2, (1, (1, 1)), (1, (2, 2))),))
        assert least_certified_mu(mu_upper_bound_details(I, trials=2, seed=0)) == 1

    def test_non_monomial_common_factor_rejected(self):
        I = PolyIdeal(
            2,
            (P(2, (1, (2, 0)), (1, (1, 1))), P(2, (1, (1, 2)), (1, (0, 3)))),
        )
        with pytest.raises(NotZeroDimensionalError):
            least_certified_mu(mu_upper_bound_details(I, trials=2, seed=0, budget=8))

    @pytest.mark.parametrize(
        "I",
        [
            PolyIdeal(1, (P(1, (1, (5,)), (1, (6,))),)),  # one variable: l = mu = 5, the bound's equality case
            PolyIdeal(2, (P(2, (1, (0, 0)), (1, (1, 0))),)),  # a unit at the origin: l = mu = 0
            BOUNDARY_PRIMITIVE,
            random_origin_ideal(mix(4242, 1), 3),
        ],
        ids=["one-variable", "unit", "worked", "origin-n3"],
    )
    def test_mu_past_the_length_bound_is_inconsistent(self, monkeypatch, I):
        from dataclasses import replace

        from staircase import degeneration

        mu_upper_bound_details(I)  # the true mu keeps the bound
        real = degeneration.compute_mu
        monkeypatch.setattr(degeneration, "compute_mu", lambda J: replace(real(J), mu=real(J).mu * 10 + 1))
        with pytest.raises(ConsistencyError, match="broke the length bound"):
            mu_upper_bound_details(I)


def _fraction_pivots(rows, ncols):
    """Pivot columns and rank of rational Gaussian elimination, columns
    taken left to right: the oracle for the integer echelon."""
    mat = [[F(row.get(j, 0)) for j in range(ncols)] for row in rows]
    pivots, r = [], 0
    for j in range(ncols):
        k = next((i for i in range(r, len(mat)) if mat[i][j] != 0), None)
        if k is None:
            continue
        mat[r], mat[k] = mat[k], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][j] / mat[r][j]
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(j)
        r += 1
    return pivots, r


class TestIntegerEchelon:
    @given(
        rows=st.lists(
            st.dictionaries(st.integers(0, 11), st.sampled_from([-6, -3, -2, -1, 1, 2, 3, 4, 9]), min_size=1, max_size=4),
            min_size=1,
            max_size=16,
        )
    )
    def test_matches_rational_elimination(self, rows):
        from staircase.macaulay import _Echelon

        first, last = rows[0], rows[-1]  # plus one dependent row
        combo = {j: 2 * first.get(j, 0) - 3 * last.get(j, 0) for j in first.keys() | last.keys()}
        rows = rows + [{j: v for j, v in combo.items() if v}]
        ech = _Echelon()
        for row in rows:
            if row:
                ech.insert(dict(row))
        assert (sorted(ech.pivots), ech.rank) == _fraction_pivots(rows, 12)
        for j, row in ech.pivots.items():  # primitive integer rows led at their pivot
            assert min(row) == j and row[j] > 0
            assert all(isinstance(v, int) for v in row.values())
            assert math.gcd(*row.values()) == 1


class TestCertifyOnce:
    def test_certified_n_and_rank_do_not_depend_on_the_order(self):
        from staircase.degeneration import _base_trials
        from staircase.macaulay import certify_truncation

        for i in range(12):
            n = 2 if i % 2 == 0 else 3
            I = random_origin_ideal(mix(4242, i), n)
            found = {
                (data.N, data.rank)
                for data in (certify_truncation(n, I.integer_generators, order) for _, order in _base_trials(n))
            }
            assert len(found) == 1

    def test_degenerate_searches_n_once(self, monkeypatch, tmp_path):
        from staircase.cli import main
        from staircase.ideal_io import ideal_to_document
        from staircase.macaulay import certify_truncation

        I = random_origin_ideal(mix(515, 3), 3)
        N = certify_truncation(I.n, I.integer_generators, default_order("grevlex", I.n)).N
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(ideal_to_document(I)))
        calls = _count_truncations(monkeypatch)
        assert main(["degenerate", "--input", str(path)]) == 0
        assert calls == list(range(2, N + 1))

    def test_monomial_factor_runs_no_extra_truncation(self, monkeypatch, capsys, tmp_path):
        # the worked ideal x2^2 (x1^6, x2^2 + x1^2 x2) lies in (x2): its length
        # is infinite, which is known before any truncation of the ideal itself
        from staircase.cli import main
        from staircase.ideal_io import ideal_to_document
        from staircase.macaulay import certify_truncation

        N = certify_truncation(2, BOUNDARY_PRIMITIVE.integer_generators, default_order("grevlex", 2)).N
        path = tmp_path / "worked.json"
        path.write_text(json.dumps(ideal_to_document(BOUNDARY_IDEAL)))
        calls = _count_truncations(monkeypatch)
        assert main(["degenerate", "--input", str(path)]) == 0
        rep = json.loads(capsys.readouterr().out)["reports"][0]
        assert rep["length"] is None
        assert rep["tangent_cone_initial"] == [[0, 4], [6, 2]]
        assert calls == list(range(2, N + 1))  # the content-free part only
        del calls[:]
        with pytest.raises(NotZeroDimensionalError):
            check_length_preservation(BOUNDARY_IDEAL)
        assert calls == []

    def test_one_variable_content_has_finite_length(self):
        # x^3 (1 + x) generates (x^3) locally: length 3 before and after
        I = PolyIdeal(1, (P(1, (1, (3,)), (1, (4,))),))
        check = check_length_preservation(I)
        assert check.l_orig == 3 == check.l_initial and check.equal

    def test_rational_coefficients_match_integer_multiple(self, capsys, tmp_path):
        from staircase.cli import main
        from staircase.ideal_io import ideal_to_document

        halves = PolyIdeal(2, (P(2, (F(1, 2), (2, 0)), (F(3, 7), (1, 1))), P(2, (F(5, 3), (0, 3)), (1, (1, 2)))))
        scaled = PolyIdeal(2, tuple(RationalPolynomial(2, {e: 42 * c for e, c in g.terms.items()}) for g in halves.gens))
        reports = []
        for I in (halves, scaled):
            path = tmp_path / "ideal.json"
            path.write_text(json.dumps(ideal_to_document(I)))
            assert main(["degenerate", "--input", str(path)]) == 0
            rep = json.loads(capsys.readouterr().out)["reports"][0]
            del rep["ideal"]  # echoes the coefficients
            reports.append(rep)
        assert reports[0] == reports[1]
        assert reports[0]["length"]["equal"] is True


def _details_oracle(I: PolyIdeal, trials: int = 8, seed: int = 0, budget: int = 24):
    """mu_upper_bound_details the long way: every base order and every shear
    degenerates on its own, with its own N search."""

    def mu(J, order):
        try:
            return compute_mu(tangent_cone_initial(J, order, budget)).mu
        except NotZeroDimensionalError:
            return None

    out = [(label, mu(I, order)) for label, order in _base_trials(I.n)]
    rng = random.Random(seed)
    for t in range(trials):
        m = _shear_matrix(rng, I.n)
        sheared = PolyIdeal(I.n, tuple(RationalPolynomial(I.n, substitute_linear(g, m)) for g in I.integer_generators))
        out.append((f"shear[{t}] rows={m}", mu(sheared, default_order("grevlex", I.n))))
    return out


NON_MONOMIAL_FACTOR = PolyIdeal(2, (P(2, (1, (2, 0)), (1, (1, 1))), P(2, (1, (1, 2)), (1, (0, 3)))))


def _x1_squared_times(I: PolyIdeal) -> PolyIdeal:
    """x1^2 I: lower-triangular shears always fix x1, so every trial certifies."""
    shift = (2,) + (0,) * (I.n - 1)
    return PolyIdeal(I.n, tuple(
        RationalPolynomial(I.n, {tuple(a + b for a, b in zip(e, shift)): c for e, c in g.terms.items()}) for g in I.gens
    ))


def _count_polynomials(monkeypatch) -> list[RationalPolynomial]:
    built: list[RationalPolynomial] = []
    real = RationalPolynomial.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(RationalPolynomial, "__post_init__", counted)
    return built


class TestContentSplitBuildsNoPolynomial:
    # the content is split on the integer term maps and the truncations take
    # them as they are, so degenerating a parsed ideal builds no polynomial
    def test_tangent_cone(self, monkeypatch):
        built = _count_polynomials(monkeypatch)
        assert tangent_cone_initial(BOUNDARY_IDEAL) == MonomialIdeal(2, [(6, 2), (0, 4)])
        assert built == []

    @pytest.mark.parametrize("I,budget", [(BOUNDARY_IDEAL, 24), (NON_MONOMIAL_FACTOR, 8)], ids=["worked", "non_monomial"])
    def test_mu_bound(self, monkeypatch, I, budget):
        built = _count_polynomials(monkeypatch)
        details = mu_upper_bound_details(I, budget=budget)
        assert built == []
        # some trial certified; on NON_MONOMIAL_FACTOR only a shear that searched its own N does
        assert any(mu is not None for _, mu in details)


class TestDegenerateOpConvertsOnce:
    def test_benchmark_degenerate_ops(self, monkeypatch, tmp_path):
        # every seed-1 degenerate document of the benchmark: after parsing, the
        # op builds no polynomial and converts each generator to integers once
        import importlib.util
        import sys
        from pathlib import Path

        from staircase import cli

        bench = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", bench)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up there
        spec.loader.exec_module(workloads)
        docs = [op.doc for op in workloads.degeneration(1) if op.command == "degenerate"]

        built = _count_polynomials(monkeypatch)
        converted = []
        real_terms, real_parse = RationalPolynomial.integer_terms, cli.parse_ideal_file

        def counted_terms(self):
            converted.append(self)
            return real_terms(self)

        def parse(path):
            ideals = real_parse(path)
            built.clear()
            return ideals

        monkeypatch.setattr(RationalPolynomial, "integer_terms", counted_terms)
        monkeypatch.setattr(cli, "parse_ideal_file", parse)
        path = tmp_path / "ideal.json"
        totals = Counter()
        for doc in docs:
            path.write_text(json.dumps(doc))
            converted.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["degenerate", "--input", str(path)]) == 0
            assert built == [] and len(converted) == len(doc["generators"]), doc
            totals["docs"] += 1
            totals["generators"] += len(doc["generators"])
        assert totals == {"docs": 192, "generators": 774}


class TestShearsShareTheSearch:
    def test_details_match_per_trial_search(self):
        cases = [(random_origin_ideal(mix(4242, i), 2 if i % 2 == 0 else 3), i, 24) for i in range(12)]
        cases += [
            (BOUNDARY_IDEAL, 0, 24),
            (_x1_squared_times(random_origin_ideal(mix(4242, 1), 3)), 5, 24),
            (NON_MONOMIAL_FACTOR, 0, 8),
        ]
        for I, seed, budget in cases:
            assert mu_upper_bound_details(I, seed=seed, budget=budget) == _details_oracle(I, seed=seed, budget=budget)

    def test_worked_ideal_has_fixing_and_moving_shears(self):
        shears = [mu for label, mu in mu_upper_bound_details(BOUNDARY_IDEAL) if label.startswith("shear")]
        assert None in shears and 3 in shears

    def test_worked_ideal_runs_one_truncation_per_shear(self, monkeypatch):
        N = certify_truncation(2, BOUNDARY_PRIMITIVE.integer_generators, default_order("grevlex", 2)).N
        calls = _count_truncations(monkeypatch)
        mu_upper_bound_details(BOUNDARY_IDEAL, trials=8)
        # seed 0 draws the shear entries 3, 0, 3, 0, -3, -1, 1, 0: three
        # identities, which repeat the grevlex base order, and four distinct shears
        assert calls == list(range(2, N + 1)) + [N] * (len(_base_trials(2)) - 1 + 4)
        assert len(calls) == 13

    def test_repeated_shears_run_once(self, monkeypatch):
        # seed 1 draws the shear entries -2, 1, 3, 3, 3, -3, -1, -3: five distinct shears
        I = random_origin_ideal(mix(4242, 2), 2)
        N = certify_truncation(I.n, I.integer_generators, default_order("grevlex", I.n)).N
        rng = random.Random(1)
        distinct = {str(_shear_matrix(rng, 2)) for _ in range(8)}
        calls = _count_truncations(monkeypatch)
        details = mu_upper_bound_details(I, seed=1)
        assert len(distinct) == 5
        assert calls == list(range(2, N + 1)) + [N] * (len(_base_trials(2)) - 1 + len(distinct))
        assert details == _details_oracle(I, seed=1)

    def test_base_failure_runs_no_shear_truncation(self, monkeypatch):
        calls = _count_truncations(monkeypatch)
        details = mu_upper_bound_details(NON_MONOMIAL_FACTOR, trials=4, budget=8)
        assert calls == list(range(2, 9))
        assert len(details) == 4 + 4 and all(mu is None for _, mu in details)

    def test_shear_that_makes_the_factor_monomial_searches_its_own_n(self, monkeypatch):
        # (x1 + x2) (x1, x2^2) under x2 -> x2 - x1 becomes x2 (x1, (x2 - x1)^2):
        # the sheared content-free part is no longer inside the image of P
        m = [[1, 0], [-1, 1]]
        _, part = _split_content(tuple(substitute_linear(g, m) for g in NON_MONOMIAL_FACTOR.integer_generators))
        N = certify_truncation(2, part, default_order("grevlex", 2)).N
        calls = _count_truncations(monkeypatch)
        details = mu_upper_bound_details(NON_MONOMIAL_FACTOR, trials=8, budget=8)
        assert details[4 + 5] == (f"shear[5] rows={m}", 1)
        assert [mu for _, mu in details].count(None) == len(details) - 1
        assert calls == list(range(2, 9)) + list(range(2, N + 1))

    def test_rank_change_is_inconsistent(self, monkeypatch):
        from dataclasses import replace

        from staircase import degeneration

        real = degeneration.truncation_at

        def off_by_one(*args):
            data = real(*args)
            return replace(data, rank=data.rank + 1)

        monkeypatch.setattr(degeneration, "truncation_at", off_by_one)
        with pytest.raises(ConsistencyError, match=r"grevlex priority=\(1, 0\) changed the truncation"):
            mu_upper_bound_details(random_origin_ideal(mix(4242, 2), 2))  # the second base order disagrees first

    @pytest.mark.parametrize("I", [random_origin_ideal(mix(4242, 2), 2), BOUNDARY_IDEAL], ids=["origin", "worked"])
    def test_flipped_row_condition_is_inconsistent(self, monkeypatch, I):
        from staircase import degeneration

        real = degeneration._image_content

        def flipped(m, c):  # claims that fixing shears move the content, and moving ones fix it
            return c if real(m, c) != c else tuple(x + 1 for x in c)

        monkeypatch.setattr(degeneration, "_image_content", flipped)
        with pytest.raises(ConsistencyError, match="shear"):
            mu_upper_bound_details(I)


def _count_truncations(monkeypatch) -> list[int]:
    """Record the N of every truncation_at call, from the search and from the trials."""
    from staircase import degeneration, macaulay

    calls: list[int] = []
    real = macaulay.truncation_at

    def counted(n, gens, N, order):
        calls.append(N)
        return real(n, gens, N, order)

    monkeypatch.setattr(macaulay, "truncation_at", counted)
    monkeypatch.setattr(degeneration, "truncation_at", counted)
    return calls
