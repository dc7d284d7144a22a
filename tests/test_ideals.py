"""Core monomial ideal algebra."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from staircase import (
    FormatError,
    GcdFactorization,
    MonomialIdeal,
    RationalPolynomial,
    ResourceError,
    colength,
    colength_inclusion_exclusion,
    contains_polynomial,
    factor_out_gcd,
    ideal_power,
    ideal_product,
    integral_closure,
    is_power_of_maximal,
    is_zero_dimensional,
    maximal_ideal_power,
    shift_ideal,
)
from staircase import ideals as ideals_module
from staircase import polytope as polytope_module
from staircase.invariants import codim2_corpus, random_ideal, zero_dim_corpus

M2 = MonomialIdeal(2, [(1, 0), (0, 1)])


def exponents(n, max_exp=6):
    return st.tuples(*[st.integers(0, max_exp)] * n)


def gen_sets(n, max_exp=6, max_gens=5):
    return st.lists(exponents(n, max_exp), min_size=1, max_size=max_gens).filter(
        lambda gens: any(any(g) for g in gens)
    )


class TestMinimalize:
    def test_divisible_generator_dropped(self):
        assert MonomialIdeal(2, [(2, 0), (2, 1), (0, 3)]).gens == ((0, 3), (2, 0))

    def test_singleton(self):
        assert MonomialIdeal(2, [(1, 1)]).gens == ((1, 1),)

    def test_antichain_untouched(self):
        gens = [(6, 2), (0, 4), (3, 3)]
        assert set(MonomialIdeal(2, gens).gens) == set(gens)

    def test_zero_ideal_rejected(self):
        with pytest.raises(FormatError):
            MonomialIdeal(2, [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(FormatError):
            MonomialIdeal(2, [(1, 2, 3)])

    def test_negative_exponent_rejected(self):
        with pytest.raises(FormatError):
            MonomialIdeal(2, [(1, -1)])

    def test_integer_likes_accepted_through_index(self):
        class Index:  # what numpy integers and other integer types provide
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        J = MonomialIdeal(2, [(Index(6), 0), (0, Index(2))])
        assert J.gens == ((0, 2), (6, 0))
        assert all(type(c) is int for g in J.gens for c in g)
        for bad in (True, 1.0, Fraction(1), "1", Index(-1)):
            with pytest.raises(FormatError):
                MonomialIdeal(2, [(bad, 0)])

    def test_huge_entries_raise_format_errors(self):
        # the messages name a bad entry's position and type, never the vector,
        # whose ints may be too long for Python to format
        big = 10**5000
        for bad in (
            lambda: MonomialIdeal(2, [(-big, 0)]),
            lambda: MonomialIdeal(2, [(big, "a")]),
            lambda: MonomialIdeal(2, [(big, 0, 1)]),
            lambda: ideals_module._validate_exponent(big, 2),
            lambda: RationalPolynomial(2, {(big, -1): 1}),
            lambda: MonomialIdeal(2, [(Fraction(big), 0)]),
        ):
            with pytest.raises(FormatError):
                bad()

    def test_messages_never_format_huge_arguments(self):
        # a message names n, the generator count or a coordinate's position,
        # never the ideal, the point or the power, whose ints may be too long
        # for Python to format
        from staircase import (
            DimensionError,
            DomainError,
            build_polytope,
            covolume,
            multiplicity,
            multiplicity_limit_estimate,
            verify_zero_dim,
        )

        big = 10**5000
        J = MonomialIdeal(2, [(big, 1)])
        for bad in (
            lambda: colength(J),
            lambda: multiplicity(J),
            lambda: covolume(J),
            lambda: verify_zero_dim(J),
            lambda: multiplicity_limit_estimate(J, 2),
        ):
            with pytest.raises(DimensionError, match="not zero-dimensional|needs a zero-dimensional"):
                bad()
        for bad in (
            lambda: maximal_ideal_power(-big, 1),
            lambda: maximal_ideal_power(2, -big),
            lambda: ideal_power(M2, -big),
        ):
            with pytest.raises(FormatError):
                bad()
        with pytest.raises(DomainError, match="t_max must be >= 1"):
            multiplicity_limit_estimate(M2, -big)
        with pytest.raises(ResourceError, match="t_max exceeds"):
            multiplicity_limit_estimate(M2, big)
        P = build_polytope(M2)
        for bad in (P.contains_point, P.contains_point_lp):
            with pytest.raises(DomainError, match="negative coordinate at position 0"):
                bad((-big, 0))

    def test_two_variable_sweep_matches_brute_force(self):
        rng = random.Random(2024)
        for _ in range(500):
            gens = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(rng.randint(1, 12))]
            minimal = {g for g in gens if not any(h != g and ideals_module.divides(h, g) for h in gens)}
            assert MonomialIdeal(2, gens).gens == tuple(sorted(minimal))

    def test_two_variable_parse_of_a_large_antichain(self):
        # the 3,001 generators of the closure of (x^3000, y^3000), shuffled
        import json
        import time

        from staircase.ideal_io import parse_ideal_text

        gens = [[i, 3000 - i] for i in range(3001)]
        random.Random(7).shuffle(gens)
        text = json.dumps({"vars": 2, "kind": "monomial", "generators": gens})
        start = time.perf_counter()
        (J,) = parse_ideal_text(text)
        assert time.perf_counter() - start < 1
        assert J.gens == tuple((i, 3000 - i) for i in range(3001))

    @given(gen_sets(2), st.permutations(range(5)))
    def test_idempotent_and_order_insensitive(self, gens, perm):
        J = MonomialIdeal(2, gens)
        assert MonomialIdeal(2, J.gens) == J
        reordered = [gens[i % len(gens)] for i in perm] + gens
        assert MonomialIdeal(2, reordered) == J


class TestZeroDimensional:
    def test_pure_powers(self):
        assert is_zero_dimensional(MonomialIdeal(2, [(6, 0), (0, 2)]))

    def test_principal_mixed(self):
        assert not is_zero_dimensional(MonomialIdeal(2, [(1, 1)]))

    def test_missing_pure_power(self):
        assert not is_zero_dimensional(MonomialIdeal(2, [(2, 0), (1, 1)]))


class TestColength:
    def test_box(self):
        assert colength(MonomialIdeal(2, [(6, 0), (0, 2)])) == 12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_maximal_ideal(self, n):
        gens = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        assert colength(MonomialIdeal(n, gens)) == 1

    def test_maximal_cube(self):
        assert colength(ideal_power(M2, 3)) == 6

    def test_non_zero_dimensional_rejected(self):
        from staircase import DimensionError

        with pytest.raises(DimensionError):
            colength(MonomialIdeal(2, [(1, 1)]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_maximal_power_matches_filter_definition(self, n):
        for q in range(7):
            gens = [e for e in product(range(q + 1), repeat=n) if sum(e) == q]
            J = maximal_ideal_power(n, q)
            assert J == MonomialIdeal(n, tuple(gens))
            assert J.is_unit == (q == 0)

    def test_maximal_power_rejects_bad_arguments(self):
        with pytest.raises(FormatError):
            maximal_ideal_power(2, -1)
        with pytest.raises(FormatError):
            maximal_ideal_power(0, 2)

    @pytest.mark.parametrize("n,q", [(1, 4), (2, 3), (3, 4), (4, 2)])
    def test_maximal_power_closed_form(self, n, q):
        J = maximal_ideal_power(n, q)
        expected = math.comb(q - 1 + n, n)  # monomials of degree < q
        assert colength(J) == expected == colength_inclusion_exclusion(J)

    def test_box_vs_inclusion_exclusion_on_corpus(self):
        for i in range(150):
            n = 1 + i % 3
            J = random_ideal(seed=900 + i, n=n, max_exp=8, max_gens=6, force_zero_dim=True)
            assert colength(J) == colength_inclusion_exclusion(J)


class TestProductPower:
    def test_maximal_square(self):
        assert ideal_product(M2, M2).gens == ((0, 2), (1, 1), (2, 0))

    def test_power_of_two_generators(self):
        J = MonomialIdeal(2, [(6, 0), (0, 2)])
        assert set(ideal_power(J, 2).gens) == {(12, 0), (6, 2), (0, 4)}

    def test_power_one_is_identity(self):
        J = MonomialIdeal(3, [(1, 2, 0), (0, 0, 3), (2, 0, 1)])
        assert ideal_power(J, 1) == J

    def test_ambient_mismatch(self):
        with pytest.raises(FormatError):
            ideal_product(M2, MonomialIdeal(3, [(1, 0, 0)]))

    @given(gen_sets(2, max_exp=4, max_gens=4), st.integers(1, 4), st.integers(1, 4))
    def test_power_additivity(self, gens, s, t):
        J = MonomialIdeal(2, gens)
        assert ideal_power(J, s + t) == ideal_product(ideal_power(J, s), ideal_power(J, t))


class TestGcdFactorization:
    def test_shared_factor(self):
        fac = factor_out_gcd(MonomialIdeal(2, [(6, 2), (0, 4)]))
        assert fac == GcdFactorization(b=(0, 2), primitive=MonomialIdeal(2, [(6, 0), (0, 2)]))

    def test_single_variable_factor(self):
        fac = factor_out_gcd(MonomialIdeal(2, [(3, 0), (1, 2)]))
        assert fac.b == (1, 0)
        assert fac.primitive == MonomialIdeal(2, [(2, 0), (0, 2)])

    def test_zero_dimensional_is_its_own_primitive(self):
        J = MonomialIdeal(2, [(6, 0), (0, 2)])
        assert factor_out_gcd(J) == GcdFactorization(b=(0, 0), primitive=J)

    @given(gen_sets(3, max_exp=5, max_gens=4))
    def test_roundtrip(self, gens):
        J = MonomialIdeal(3, gens)
        fac = factor_out_gcd(J)
        assert not any(
            all(g[i] > 0 for g in fac.primitive.gens) for i in range(3)
        )  # componentwise min of primitive is zero
        assert shift_ideal(fac.primitive, fac.b) == J


class TestIntegralClosure:
    def test_diagonal_fill(self):
        J = MonomialIdeal(2, [(4, 0), (0, 4)])
        assert integral_closure(J) == maximal_ideal_power(2, 4)

    def test_maximal_power_closed(self):
        J = maximal_ideal_power(3, 3)
        assert integral_closure(J) == J

    def test_staircase_point_added(self):
        J = MonomialIdeal(2, [(6, 0), (0, 2)])
        assert integral_closure(J).gens == ((0, 2), (3, 1), (6, 0))

    @given(gen_sets(2, max_exp=6, max_gens=4))
    def test_extensive_and_idempotent(self, gens):
        J = MonomialIdeal(2, gens)
        cl = integral_closure(J)
        assert cl.contains_ideal(J)
        assert integral_closure(cl) == cl

    @given(gen_sets(2, max_exp=5, max_gens=3), gen_sets(2, max_exp=5, max_gens=3))
    def test_monotone(self, gens_a, gens_b):
        A = MonomialIdeal(2, gens_a)
        B = MonomialIdeal(2, gens_a + gens_b)  # B contains A
        assert integral_closure(B).contains_ideal(integral_closure(A))


def closure_power_oracle(J):
    """The box-scan answer: q when the integral closure of J is m^q with q >= 1, else None.

    The closure is m^q when its minimal generators all have degree q and
    number C(q + n - 1, n - 1), i.e. they are every monomial of degree q.
    """
    closure = integral_closure(J)
    degs = {sum(g) for g in closure.gens}
    if len(degs) != 1:
        return None
    q = degs.pop()
    if q == 0 or len(closure.gens) != math.comb(q + J.n - 1, J.n - 1):
        return None
    return q


def near_power(rng, n, q):
    """m^q with some generators dropped, moved up or down one step, plus random extras."""
    gens = []
    for g in maximal_ideal_power(n, q).gens:
        roll = rng.random()
        if roll < 0.15:
            continue
        g = list(g)
        i = rng.randrange(n)
        if roll < 0.3:
            g[i] += 1
        elif roll < 0.4 and g[i] > 0:
            g[i] -= 1
        gens.append(tuple(g))
    for _ in range(rng.randint(0, 2)):
        gens.append(tuple(rng.randint(0, q + 1) for _ in range(n)))
    gens = [g for g in gens if any(g)]
    return MonomialIdeal(n, gens or [(q,) * n])


class TestPowerOfMaximal:
    def test_detected(self):
        assert is_power_of_maximal(MonomialIdeal(2, [(4, 0), (0, 4)])) == 4

    def test_absent(self):
        assert is_power_of_maximal(MonomialIdeal(2, [(6, 0), (0, 2)])) is None

    def test_maximal_itself(self):
        assert is_power_of_maximal(M2) == 1

    def test_unit_and_non_zero_dimensional(self):
        assert is_power_of_maximal(MonomialIdeal(3, [(0, 0, 0)])) is None
        assert is_power_of_maximal(MonomialIdeal(2, [(2, 0), (1, 1)])) is None

    def test_agrees_with_closure_on_acceptance_corpus(self):
        # the acceptance[3] corpus: 250 ideals of each of n = 1..4
        corpus = zero_dim_corpus(seed=20260809, count=1000, dims=(1, 2, 3, 4), max_exp=10, max_gens=8)
        powers = 0
        for J in corpus:
            q = closure_power_oracle(J)
            assert is_power_of_maximal(J) == q, J
            powers += q is not None
        assert powers >= 250  # every one-variable ideal is a power, and some others are

    def test_agrees_with_closure_off_zero_dimensional(self):
        ideals = codim2_corpus(seed=4242, count=200)
        ideals += [random_ideal(seed=7100 + i, n=1 + i % 4, max_exp=6, max_gens=6, force_zero_dim=False) for i in range(200)]
        for J in ideals:
            assert is_power_of_maximal(J) == closure_power_oracle(J), J

    @pytest.mark.parametrize("n,q", [(n, q) for n in (1, 2, 3, 4) for q in (1, 2, 3, 4, 5)])
    def test_maximal_power_and_each_generator_removed(self, n, q):
        full = maximal_ideal_power(n, q)
        assert is_power_of_maximal(full) == closure_power_oracle(full) == q
        orbits = set()  # both sides are symmetric in the variables: one removal per orbit
        for g in full.gens:
            rest = [h for h in full.gens if h != g]
            if rest and tuple(sorted(g)) not in orbits:
                orbits.add(tuple(sorted(g)))
                J = MonomialIdeal(n, rest)
                assert is_power_of_maximal(J) == closure_power_oracle(J), J

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pure_powers_only(self, n):
        for degs in product(range(5), repeat=n):
            degs = tuple(d + 1 for d in degs)
            J = MonomialIdeal(n, [tuple(d if j == i else 0 for j in range(n)) for i, d in enumerate(degs)])
            expected = degs[0] if len(set(degs)) == 1 else None
            assert is_power_of_maximal(J) == closure_power_oracle(J) == expected

    def test_random_near_powers(self):
        rng = random.Random(20261018)
        powers = 0
        for _ in range(300):
            n = rng.randint(1, 4)
            J = near_power(rng, n, rng.randint(1, 5 if n < 4 else 3))
            q = closure_power_oracle(J)
            assert is_power_of_maximal(J) == q, J
            powers += q is not None
        assert 30 <= powers <= 270  # both answers are exercised

    @given(st.integers(1, 3).flatmap(lambda n: gen_sets(n, max_exp=5, max_gens=6)))
    def test_property_matches_closure(self, gens):
        J = MonomialIdeal(len(gens[0]), gens)
        assert is_power_of_maximal(J) == closure_power_oracle(J)

    @given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 2**32))
    def test_property_matches_closure_near_powers(self, n, q, seed):
        J = near_power(random.Random(seed), n, q)
        assert is_power_of_maximal(J) == closure_power_oracle(J)


class TestContainsPolynomial:
    def test_both_terms_divisible(self):
        f = RationalPolynomial(2, {(0, 2): 1, (2, 1): 1})
        assert contains_polynomial(MonomialIdeal(2, [(0, 1)]), f)

    def test_term_outside_closure(self):
        f = RationalPolynomial(2, {(0, 2): 1, (2, 1): 1})
        cl = integral_closure(MonomialIdeal(2, [(6, 0), (0, 2)]))
        assert not contains_polynomial(cl, f)

    def test_zero_polynomial(self):
        assert contains_polynomial(MonomialIdeal(2, [(5, 5)]), RationalPolynomial(2, {}))

    def test_ambient_mismatch(self):
        with pytest.raises(FormatError):
            contains_polynomial(M2, RationalPolynomial(3, {}))


def test_unit_ideal_degenerate_values():
    unit = MonomialIdeal(2, [(0, 0)])
    assert unit.is_unit
    assert is_zero_dimensional(unit)
    assert colength(unit) == 0
    assert integral_closure(unit) == unit


def test_enumeration_budget_guard():
    huge = MonomialIdeal(3, [(10**6, 0, 0), (0, 10**6, 0), (0, 0, 10**6)])
    assert colength(huge) == 10**18  # the slices need no box
    with pytest.raises(ResourceError):
        integral_closure(huge)


def test_colength_exact_for_huge_exponents():
    a, b, c = 10**9 - 63, 10**9 - 11, 10**9 - 7
    J = MonomialIdeal(3, [(a, 0, 0), (0, b, 0), (0, 0, c), (a - 1, b - 1, 1), (1, 2, c - 5)])
    # the box, minus the monomials each mixed generator divides, plus those both divide
    expected = a * b * c - (c - 1) - (a - 1) * (b - 2) * 5 + 5
    assert colength(J) == colength_inclusion_exclusion(J) == expected
    assert len(str(expected)) == 27


def test_colength_matches_fraction_free_count():
    # complete intersection: product of the pure-power degrees
    J = MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 4)])
    assert colength(J) == 24
    assert colength_inclusion_exclusion(J) == 24


def _forbid(monkeypatch, owner, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(owner, name, forbidden)


def test_closure_budget_counts_bytes_before_allocating(monkeypatch):
    # 10^10 columns: the box must be refused before the facets are enumerated
    _forbid(monkeypatch, polytope_module, "build_polytope")
    wide = MonomialIdeal(3, [(99999, 0, 0), (0, 99999, 0), (0, 0, 1)])
    with pytest.raises(ResourceError) as err:
        integral_closure(wide)
    assert "10000000000 columns" in str(err.value) and "bytes" in str(err.value)


def test_scan_budget_bytes_per_column(monkeypatch):
    # the closure charges 8 * n + 160 bytes per column over the first n - 1
    # coordinates; colength scans no box and ignores the budget
    J = MonomialIdeal(2, [(6, 0), (0, 2)])  # closure box 7 columns
    closure_need = 7 * (8 * 2 + 160)
    monkeypatch.setattr(ideals_module, "MAX_SCAN_BYTES", 0)
    assert colength(J) == 12
    monkeypatch.setattr(ideals_module, "MAX_SCAN_BYTES", closure_need)
    assert integral_closure(J).gens == ((0, 2), (3, 1), (6, 0))
    monkeypatch.setattr(ideals_module, "MAX_SCAN_BYTES", closure_need - 1)
    with pytest.raises(ResourceError):
        integral_closure(J)


def test_translation_skips_minimalization(monkeypatch):
    # shifting or factoring out x^b keeps a sorted antichain sorted and
    # minimal, so neither may pay the quadratic _antichain
    C = integral_closure(MonomialIdeal(2, [(3000, 0), (0, 3000)]))
    assert C.gens == tuple((i, 3000 - i) for i in range(3001))
    shifted_gens = tuple((i + 2, 3005 - i) for i in range(3001))
    _forbid(monkeypatch, ideals_module, "_antichain")
    shifted = shift_ideal(C, (2, 5))
    assert shifted.gens == shifted_gens
    assert factor_out_gcd(shifted) == GcdFactorization(b=(2, 5), primitive=C)
    assert factor_out_gcd(C) == GcdFactorization(b=(0, 0), primitive=C)
