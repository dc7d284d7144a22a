"""Inequality checkers, reports and the random corpus machinery."""

from __future__ import annotations

from fractions import Fraction

import pytest

from staircase import (
    DimensionError,
    DomainError,
    MonomialIdeal,
    ideal_power,
    integral_closure,
    is_power_of_maximal,
    maximal_ideal_power,
    multiplicity,
    multiplicity_limit_estimate,
    random_ideal,
    verify_codim2,
    verify_zero_dim,
)
from staircase.ideals import factor_out_gcd, shift_ideal
from staircase.invariants import _boundary_closure_holds, codim2_corpus, zero_dim_corpus
from staircase.polytope import build_polytope

F = Fraction
J62 = MonomialIdeal(2, [(6, 0), (0, 2)])


class TestMultiplicity:
    @pytest.mark.parametrize("n,q", [(1, 5), (2, 3), (3, 2), (3, 4)])
    def test_maximal_powers(self, n, q):
        assert multiplicity(maximal_ideal_power(n, q)) == q**n

    def test_staircase(self):
        assert multiplicity(J62) == 12

    def test_diagonal(self):
        assert multiplicity(MonomialIdeal(2, [(4, 0), (0, 4)])) == 16

    def test_needs_zero_dimensional(self):
        with pytest.raises(DimensionError):
            multiplicity(MonomialIdeal(2, [(1, 1)]))


class TestLimitEstimate:
    def test_maximal_square(self):
        J = ideal_power(MonomialIdeal(2, [(1, 0), (0, 1)]), 2)
        assert multiplicity_limit_estimate(J, 3) == (F(6), F(5), F(14, 3))

    def test_first_entry_is_scaled_colength(self):
        from staircase import colength

        assert multiplicity_limit_estimate(J62, 1) == (F(2 * colength(J62)),)
        assert multiplicity_limit_estimate(J62, 1)[0] == 24

    def test_powers_built_one_product_each(self, monkeypatch):
        import math

        from staircase import colength, invariants

        J = MonomialIdeal(3, [(4, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (2, 0, 1)])
        expected = tuple(F(math.factorial(3) * colength(ideal_power(J, t)), t**3) for t in range(1, 9))
        calls = []
        real = invariants.ideal_product

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(invariants, "ideal_product", counted)
        assert multiplicity_limit_estimate(J, 8) == expected
        assert len(calls) == 8 - 1

    def test_cap_on_power_exponent(self):
        from staircase import ResourceError

        with pytest.raises(ResourceError):
            multiplicity_limit_estimate(J62, 9)

    def test_entries_bound_multiplicity_from_above(self):
        for i in range(25):
            n = 1 + i % 3
            J = random_ideal(seed=50 + i, n=n, max_exp=5, max_gens=5, force_zero_dim=True)
            e = multiplicity(J)
            assert all(v >= e for v in multiplicity_limit_estimate(J, 3))


class TestVerifyZeroDim:
    def test_staircase_report(self):
        r = verify_zero_dim(J62)
        assert (r.length_volume_lhs, r.length_volume_rhs) == (24, 12)
        assert (r.length_diagonal_lhs, r.length_diagonal_rhs) == (12, F(9, 2))
        assert (r.mult_diagonal_lhs, r.mult_diagonal_rhs) == (12, 9)
        assert not r.closure_equality
        assert r.closure_power_q is None
        assert r.violations() == ()

    def test_equality_case(self):
        r = verify_zero_dim(MonomialIdeal(2, [(4, 0), (0, 4)]))
        assert r.mu == 2
        assert r.mult_diagonal_lhs == r.mult_diagonal_rhs == 16
        assert r.closure_equality
        assert r.closure_power_q == 4 == int(2 * r.mu)

    def test_maximal_cube(self):
        r = verify_zero_dim(maximal_ideal_power(2, 3))
        assert r.mu == F(3, 2)
        assert r.mult == 9 == 4 * r.mu**2
        assert r.closure_power_q == 3

    def test_one_variable_boundary_equalities(self):
        # in one variable length, covolume and the diagonal bound coincide,
        # so the strict forms degenerate; the report must not flag that
        r = verify_zero_dim(MonomialIdeal(1, [(3,)]))
        assert r.length_volume_lhs == r.length_volume_rhs == 3
        assert r.length_diagonal_lhs == r.length_diagonal_rhs == 3
        assert r.closure_equality and r.closure_power_q == 3
        assert r.violations() == ()

    def test_unit_ideal_rejected(self):
        with pytest.raises(DomainError):
            verify_zero_dim(MonomialIdeal(2, [(0, 0)]))

    def test_non_zero_dimensional_rejected(self):
        with pytest.raises(DimensionError):
            verify_zero_dim(MonomialIdeal(2, [(2, 1)]))


class TestVerifyCodim2:
    def test_worked_equality_example(self):
        r = verify_codim2(MonomialIdeal(2, [(6, 2), (0, 4)]))
        assert r.b_vector == (0, 2) and (r.b1, r.b2) == (0, 2)
        assert r.mu == 3 and r.factor_mult == 2 and r.primitive_mult == 12
        assert r.sharp_bound_lhs == 36 == r.sharp_bound_rhs
        assert r.sharp_equality and r.boundary_closure_ok is True
        assert r.violations() == ()

    def test_shifted_diagonal(self):
        # (x1^3, x1 x2^2) = x1 * (x1^2, x2^2)
        r = verify_codim2(MonomialIdeal(2, [(3, 0), (1, 2)]))
        assert r.mu == F(3, 2)
        assert (r.b1, r.b2) == (0, 1)
        assert r.primitive_length == 4
        assert r.primitive_length_rhs == F(3, 2)
        assert r.mult_bound_lhs == 10 and r.mult_bound_rhs == 9
        assert r.violations() == ()

    def test_principal_pure_power(self):
        r = verify_codim2(MonomialIdeal(2, [(2, 0)]))
        assert r.mu == 2 and r.factor_mult == 2
        assert r.primitive_mult == 0 and r.primitive_length == 0
        assert r.mult_bound_lhs == 16 == r.mult_bound_rhs
        assert r.primitive_length_rhs == 0
        assert r.sharp_equality and r.boundary_closure_ok is True
        assert r.violations() == ()

    def test_principal_mixed_monomial(self):
        r = verify_codim2(MonomialIdeal(2, [(2, 3)]))
        assert r.mu == 3
        assert r.sharp_equality and r.boundary_closure_ok is True

    def test_wrong_dimension_rejected(self):
        with pytest.raises(DimensionError):
            verify_codim2(MonomialIdeal(3, [(1, 0, 0)]))


class TestCorpora:
    def test_zero_dim_corpus_clean_above_one_variable(self):
        for J in zero_dim_corpus(seed=123, count=200, dims=(2, 3, 4), max_exp=10, max_gens=8):
            r = verify_zero_dim(J)  # fatal: raises on any violation
            assert r.length_volume_lhs > r.length_volume_rhs
            assert r.length_diagonal_lhs > r.length_diagonal_rhs

    def test_one_variable_always_boundary(self):
        for J in zero_dim_corpus(seed=9, count=30, dims=(1,), max_exp=10, max_gens=8):
            r = verify_zero_dim(J)
            assert r.length_volume_lhs == r.length_volume_rhs
            assert r.closure_equality and r.closure_power_q is not None

    def test_equality_constructive_direction(self):
        # ideals whose closure is a maximal-ideal power must report equality
        import random

        rng = random.Random(77)
        checked = 0
        for _ in range(40):
            n = rng.choice([2, 3])
            q = rng.randint(1, 6)
            J = maximal_ideal_power(n, q)
            if rng.random() < 0.5 and q >= 2 and n == 2:
                # deepen one generator; keep the closure if it still fills the simplex
                gens = [g for g in J.gens if g != (q - 1, 1)] + [(q, 1)]
                cand = MonomialIdeal(2, gens)
                if is_power_of_maximal(cand) != q:
                    continue
                J = cand
            checked += 1
            r = verify_zero_dim(J)
            assert r.closure_equality
            assert r.closure_power_q == q
        assert checked >= 30

    def test_equality_converse_direction(self):
        for J in zero_dim_corpus(seed=321, count=300, dims=(1, 2, 3), max_exp=8, max_gens=8):
            r = verify_zero_dim(J)
            if r.closure_equality:
                assert r.closure_power_q is not None
                assert F(r.closure_power_q) == J.n * r.mu
                assert integral_closure(J) == maximal_ideal_power(J.n, r.closure_power_q)

    def test_codim2_corpus_clean_and_sharper(self):
        seen_gcd = 0
        for J in codim2_corpus(seed=555, count=300, max_exp=10, max_gens=8):
            r = verify_codim2(J)
            assert r.sharp_bound_lhs - r.sharp_bound_rhs <= r.mult_bound_lhs - r.mult_bound_rhs
            if (r.b1, r.b2) != (0, 0):
                seen_gcd += 1
        assert seen_gcd > 30  # corpus really exercises nontrivial monomial factors


def _shifted_closure_oracle(I: MonomialIdeal, b_vec, mu) -> bool:
    """The boundary formula as the paper states it, on I itself:
    closure(I) = x^b * closure((x1^(2mu-2b1), x2^(2mu-2b2)))."""
    two_mu = 2 * mu
    if two_mu.denominator != 1:
        return False
    k = tuple(int(two_mu) - 2 * bi for bi in b_vec)
    if any(ki < 0 for ki in k):
        return False
    corner = MonomialIdeal(2, ((k[0], 0), (0, k[1])))
    return shift_ideal(integral_closure(corner), b_vec) == integral_closure(I)


@pytest.mark.parametrize("seed", [0, 7])
def test_boundary_closure_on_the_primitive_part_matches_the_shifted_oracle(seed):
    outcomes = {True: 0, False: 0}
    equality = 0
    for J in codim2_corpus(seed=seed, count=1000):
        r = verify_codim2(J)
        expected = _shifted_closure_oracle(J, r.b_vector, r.mu)
        # the check itself, on every ideal, whether or not the bound is sharp
        assert _boundary_closure_holds(factor_out_gcd(J).primitive, r.b_vector, r.mu) == expected
        outcomes[expected] += 1
        if r.sharp_equality:
            equality += 1
            assert r.boundary_closure_ok is expected is True
    assert equality > 50 and min(outcomes.values()) > 50


def test_codim2_reports_need_no_closure_scan(monkeypatch):
    from staircase import ideals, invariants

    corpus = codim2_corpus(seed=0, count=200)
    expected = [verify_codim2(J) for J in corpus]
    assert sum(r.sharp_equality for r in expected) > 20

    def no_closure(J):
        raise AssertionError("verify_codim2 computed an integral closure")

    monkeypatch.setattr(ideals, "integral_closure", no_closure)
    monkeypatch.setattr(invariants, "integral_closure", no_closure, raising=False)  # and any copy imported into it
    assert [verify_codim2(J) for J in corpus] == expected


@pytest.mark.parametrize("n", [2, 3])
def test_equal_facets_exactly_when_equal_closures(n):
    # half the pairs add to A a generator of its closure, so the closure stays and the generators change
    outcomes = {True: 0, False: 0}
    rewritten = 0  # equal closures from different generators
    for i in range(200):
        A = random_ideal(seed=i, n=n, max_exp=8, max_gens=5, force_zero_dim=i % 3 != 0)
        extra = [g for g in integral_closure(A).gens if not A.contains_exponent(g)]
        if i % 2 and extra:
            B = MonomialIdeal(n, A.gens + (extra[i % len(extra)],))
        else:
            B = random_ideal(seed=i + 1000, n=n, max_exp=8, max_gens=5, force_zero_dim=i % 3 != 0)
        same = integral_closure(A) == integral_closure(B)
        assert (build_polytope(A).facets == build_polytope(B).facets) == same, (A, B)
        outcomes[same] += 1
        rewritten += same and A != B
    assert min(outcomes.values()) > 40 and rewritten > 40


class TestRandomIdeal:
    def test_deterministic(self):
        a = random_ideal(seed=4, n=3, max_exp=7, max_gens=6, force_zero_dim=True)
        b = random_ideal(seed=4, n=3, max_exp=7, max_gens=6, force_zero_dim=True)
        assert a == b

    def test_forced_zero_dimensional(self):
        from staircase import is_zero_dimensional

        for i in range(30):
            J = random_ideal(seed=i, n=4, max_exp=9, max_gens=8, force_zero_dim=True)
            assert is_zero_dimensional(J)

    def test_exponent_bound(self):
        for i in range(30):
            J = random_ideal(seed=i, n=3, max_exp=5, max_gens=7, force_zero_dim=False)
            assert all(all(c <= 5 for c in g) for g in J.gens)

    def test_distinct_seeds_differ_somewhere(self):
        ideals = {random_ideal(seed=i, n=2, max_exp=10, max_gens=6, force_zero_dim=True) for i in range(50)}
        assert len(ideals) > 30


def test_verify_computes_covolume_once_and_never_the_closure(monkeypatch):
    from staircase import ideals, invariants

    corpus = zero_dim_corpus(seed=31, count=40, dims=(1, 2, 3, 4), max_exp=8, max_gens=6)
    corpus += [maximal_ideal_power(n, q) for n, q in ((2, 3), (3, 2), (4, 1))]
    expected = [verify_zero_dim(J) for J in corpus]
    assert any(r.closure_power_q is not None for r in expected[-3:])

    covolume_calls = []
    real_covolume = invariants.covolume

    def counted_covolume(J):
        covolume_calls.append(J)
        return real_covolume(J)

    def no_closure(J):
        raise AssertionError("verify_zero_dim computed an integral closure")

    monkeypatch.setattr(invariants, "covolume", counted_covolume)
    assert not hasattr(invariants, "integral_closure")
    monkeypatch.setattr(ideals, "integral_closure", no_closure)
    for J, want in zip(corpus, expected):
        covolume_calls.clear()
        assert verify_zero_dim(J) == want
        assert covolume_calls == [J]
