"""Newton polytope kernel: facets, membership, diagonal entry value, covolume."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from staircase import (
    DimensionError,
    DomainError,
    MonomialIdeal,
    build_polytope,
    compute_mu,
    covolume,
    colength,
    factor_out_gcd,
    ideal_power,
    maximal_ideal_power,
)
from staircase.invariants import random_ideal

F = Fraction
J62 = MonomialIdeal(2, [(6, 0), (0, 2)])


def gen_sets(n, max_exp=6, max_gens=5):
    return st.lists(
        st.tuples(*[st.integers(0, max_exp)] * n), min_size=1, max_size=max_gens
    ).filter(lambda gens: any(any(g) for g in gens))


class TestFacets:
    def test_two_generator_staircase(self):
        facets = {(f.coefficients, f.rhs) for f in build_polytope(J62).facets}
        assert facets == {((1, 0), 0), ((0, 1), 0), ((1, 3), 6)}

    def test_principal_single_halfspace(self):
        P = build_polytope(MonomialIdeal(1, [(5,)]))
        assert [(f.coefficients, f.rhs) for f in P.facets] == [((1,), 5)]

    @pytest.mark.parametrize("n,q", [(2, 3), (3, 2)])
    def test_maximal_power_single_bounded_facet(self, n, q):
        P = build_polytope(maximal_ideal_power(n, q))
        bounded = P.bounded_facets
        assert len(bounded) == 1
        assert bounded[0].coefficients == (1,) * n
        assert bounded[0].rhs == q

    def test_bounded_facet_normal_form(self):
        (f,) = build_polytope(J62).bounded_facets
        assert f.normal_form() == (F(6), F(2))

    def test_facets_valid_on_generators(self):
        for i in range(40):
            J = random_ideal(seed=100 + i, n=3, max_exp=7, max_gens=6, force_zero_dim=False)
            P = build_polytope(J)
            for f in P.facets:
                assert all(f.satisfied(g) for g in J.gens)
                assert all(c >= 0 for c in f.coefficients)

    def test_zero_dim_bounded_facets_strictly_positive(self):
        for i in range(30):
            J = random_ideal(seed=300 + i, n=3, max_exp=6, max_gens=6, force_zero_dim=True)
            for f in build_polytope(J).facets:
                if f.rhs > 0:
                    assert all(c > 0 for c in f.coefficients)


class TestMembership:
    def test_midpoint_inside(self):
        assert build_polytope(J62).contains_point((3, 1))

    def test_below_facet_outside(self):
        assert not build_polytope(J62).contains_point((2, 1))

    def test_generators_inside(self):
        P = build_polytope(J62)
        assert all(P.contains_point(g) for g in J62.gens)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(DomainError):
            build_polytope(J62).contains_point((-1, 0))
        with pytest.raises(DomainError):
            build_polytope(J62).contains_point_lp((F(-1, 2), 0))

    def test_facet_and_lp_membership_agree(self):
        grid = [F(0), F(1, 2), F(1), F(3, 2), F(2), F(7, 2), F(5)]
        for i in range(12):
            n = 2 + i % 3  # dimensions 2..4
            J = random_ideal(seed=500 + i, n=n, max_exp=5, max_gens=5, force_zero_dim=(i % 2 == 0))
            P = build_polytope(J)
            pts = [tuple(grid[(i + j + 3 * k) % len(grid)] for k in range(n)) for j in range(10)]
            for u in pts:
                assert P.contains_point(u) == P.contains_point_lp(u)


class TestMu:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_maximal_powers(self, n, q):
        assert compute_mu(maximal_ideal_power(n, q)).mu == F(q, n)

    def test_two_generators(self):
        mv = compute_mu(J62)
        assert mv.mu == F(3, 2)
        assert mv.lct == F(2, 3)

    def test_shifted_staircase(self):
        assert compute_mu(MonomialIdeal(2, [(6, 2), (0, 4)])).mu == 3

    def test_witness_is_tight_on_diagonal(self):
        for i in range(25):
            J = random_ideal(seed=700 + i, n=3, max_exp=8, max_gens=6, force_zero_dim=True)
            mv = compute_mu(J)
            w = mv.witness_facet
            assert w.evaluate((mv.mu,) * 3) == w.rhs

    def test_witness_normal_form_reciprocal_sum(self):
        # on the witness facet sum u_i / a_i = 1, mu equals 1 / sum(1 / a_i)
        for i in range(25):
            J = random_ideal(seed=800 + i, n=2, max_exp=9, max_gens=5, force_zero_dim=True)
            mv = compute_mu(J)
            nf = mv.witness_facet.normal_form()
            assert nf is not None
            assert mv.mu == 1 / sum(1 / a for a in nf)

    def test_lp_confirms_membership_at_mu_and_not_below(self):
        for i in range(10):
            n = 2 + i % 2
            J = random_ideal(seed=900 + i, n=n, max_exp=6, max_gens=5, force_zero_dim=True)
            P = build_polytope(J)
            mu = compute_mu(J).mu
            assert P.contains_point_lp((mu,) * n)
            below = mu * F(999_999, 1_000_000)
            if below > 0:
                assert not P.contains_point_lp((below,) * n)

    @given(gen_sets(2, max_exp=5, max_gens=4), st.integers(1, 4))
    def test_scaling_under_powers(self, gens, t):
        J = MonomialIdeal(2, gens)
        assert compute_mu(ideal_power(J, t)).mu == t * compute_mu(J).mu

    def test_mu_at_least_max_gcd_exponent(self):
        for i in range(40):
            J = random_ideal(seed=1000 + i, n=2, max_exp=8, max_gens=6, force_zero_dim=False)
            assert compute_mu(J).mu >= max(factor_out_gcd(J).b)

    def test_unit_ideal(self):
        mv = compute_mu(MonomialIdeal(2, [(0, 0)]))
        assert mv.mu == 0 and mv.lct is None


class TestVolumeEngine:
    """Direct checks of the H-representation volume recursion behind the covolume oracle."""

    def _vol(self, ineqs, d):
        from oracles import polytope_volume

        return polytope_volume(ineqs, d)

    def test_box(self):
        ineqs = [((1, 0), 0), ((0, 1), 0), ((-1, 0), -3), ((0, -1), -5)]
        assert self._vol(ineqs, 2) == 15

    def test_standard_simplex(self):
        for n in (1, 2, 3, 4):
            ineqs = [tuple((1 if j == i else 0) for j in range(n)) for i in range(n)]
            system = [(e, 0) for e in ineqs] + [((-1,) * n, -1)]
            assert self._vol(system, n) == F(1, math.factorial(n))

    def test_translated_scaled_simplex(self):
        # simplex with legs 6 and 2 shifted off the origin
        system = [((1, 0), 1), ((0, 1), 2), ((-1, -3), -(1 + 6 + 3 * 2))]
        assert self._vol(system, 2) == 6

    def test_empty_region(self):
        system = [((1, 0), 4), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)]
        assert self._vol(system, 2) == 0

    def test_degenerate_region(self):
        system = [((1, 0), 2), ((-1, 0), -2), ((0, 1), 0), ((0, -1), -7)]
        assert self._vol(system, 2) == 0

    def test_duplicate_and_redundant_rows(self):
        system = [
            ((1, 0), 0),
            ((2, 0), 0),  # same halfplane, scaled
            ((1, 0), -5),  # strictly weaker
            ((0, 1), 0),
            ((-1, -1), -2),
        ]
        assert self._vol(system, 2) == 2

    def test_one_dimensional(self):
        assert self._vol([((2,), 3), ((-1,), -4)], 1) == F(5, 2)


class TestSimplexCore:
    def test_feasible_system(self):
        from staircase.lp import lp_feasible

        A = [[F(1), F(1)], [F(1), F(-1)]]
        assert lp_feasible(A, [F(2), F(0)])  # x = y = 1

    def test_infeasible_by_sign(self):
        from staircase.lp import lp_feasible

        A = [[F(1), F(1)]]
        assert not lp_feasible(A, [F(-3)])  # nonnegative vars cannot sum negatively

    def test_infeasible_inconsistent(self):
        from staircase.lp import lp_feasible

        A = [[F(1), F(0)], [F(1), F(0)]]
        assert not lp_feasible(A, [F(1), F(2)])

    def test_degenerate_feasible(self):
        from staircase.lp import lp_feasible

        A = [[F(1), F(2), F(1)]]
        assert lp_feasible(A, [F(0)])  # the origin works


def _area_under_staircase(J: MonomialIdeal) -> Fraction:
    """Independent two-variable complement area: integrate the convex
    piecewise-linear lower boundary v(u) = max(0, max_f (rhs - c1 u) / c2)."""
    facets = [f for f in build_polytope(J).facets if f.rhs > 0]
    lines = [(F(f.rhs), F(f.coefficients[0]), F(f.coefficients[1])) for f in facets]
    xmax = max(r / c1 for r, c1, _ in lines)

    def v(u: Fraction) -> Fraction:
        return max([F(0)] + [(r - c1 * u) / c2 for r, c1, c2 in lines])

    cuts = {F(0), xmax}
    for (r1, a1, b1), (r2, a2, b2) in combinations(lines, 2):
        den = a1 * b2 - a2 * b1
        if den != 0:
            u = (r1 * b2 - r2 * b1) / den
            if 0 < u < xmax:
                cuts.add(u)
    for r, c1, _ in lines:
        u = r / c1
        if 0 < u < xmax:
            cuts.add(u)
    xs = sorted(cuts)
    area = F(0)
    for a, b in zip(xs, xs[1:]):
        area += (b - a) * (v(a) + v(b)) / 2
    return area


class TestCovolume:
    def test_two_generators(self):
        assert covolume(J62) == 12

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_maximal_power_plane(self, q):
        assert covolume(maximal_ideal_power(2, q)) == q * q

    @pytest.mark.parametrize("n,q", [(1, 3), (2, 4), (3, 3), (3, 5)])
    def test_maximal_power_closed_form(self, n, q):
        assert covolume(maximal_ideal_power(n, q)) == q**n

    def test_segment(self):
        assert covolume(MonomialIdeal(1, [(4,)])) == 4

    def test_complete_intersection_product(self):
        J = MonomialIdeal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 5)])
        assert covolume(J) == 30

    def test_requires_zero_dimensional(self):
        with pytest.raises(DimensionError):
            covolume(MonomialIdeal(2, [(1, 1)]))

    def test_unit_ideal_zero(self):
        assert covolume(MonomialIdeal(3, [(0, 0, 0)])) == 0

    def test_against_staircase_integration(self):
        for i in range(60):
            J = random_ideal(seed=1200 + i, n=2, max_exp=9, max_gens=7, force_zero_dim=True)
            assert covolume(J) == 2 * _area_under_staircase(J)

    def test_integrality(self):
        # the covolume of a monomial ideal is a multiplicity, hence an integer
        for i in range(40):
            n = 1 + i % 4
            J = random_ideal(seed=1400 + i, n=n, max_exp=7, max_gens=6, force_zero_dim=True)
            assert covolume(J).denominator == 1

    def test_diagonal_lower_bound(self):
        for i in range(40):
            n = 1 + i % 4
            J = random_ideal(seed=1600 + i, n=n, max_exp=8, max_gens=7, force_zero_dim=True)
            mu = compute_mu(J).mu
            assert covolume(J) >= F(n) ** n * mu**n

    def test_consistent_under_powers(self):
        J = MonomialIdeal(2, [(3, 0), (1, 1), (0, 2)])
        assert covolume(ideal_power(J, 3)) == 9 * covolume(J)

    def test_scales_with_power_exponent(self):
        for i in range(10):
            n = 2 + i % 2
            J = random_ideal(seed=2500 + i, n=n, max_exp=4, max_gens=4, force_zero_dim=True)
            base = covolume(J)
            for t in (2, 3):
                assert covolume(ideal_power(J, t)) == t**n * base

    def test_scaled_lattice_sandwich_pins_value(self):
        # scaling every generator by c scales the covolume by c^n, and the
        # unit-cube counts around the scaled staircase squeeze it within
        # n! * (boundary layer) / c; an independent quantitative check on the
        # triangulation in three and four variables
        from itertools import product as iproduct

        from staircase.ideals import pure_power_degrees

        for i, (n, c) in enumerate([(3, 8), (3, 8), (3, 8), (4, 4), (4, 4)]):
            J = random_ideal(seed=3100 + i, n=n, max_exp=4, max_gens=5, force_zero_dim=True)
            scaled = MonomialIdeal(n, tuple(tuple(c * x for x in g) for g in J.gens))
            P = build_polytope(scaled)
            box = pure_power_degrees(scaled)
            bottom_out = top_out = 0
            for u in iproduct(*map(range, box)):
                if not P.contains_point(u):
                    bottom_out += 1
                    top_out += not P.contains_point(tuple(x + 1 for x in u))
            lower = F(top_out, c**n)
            upper = F(bottom_out, c**n)
            cov = covolume(J)
            assert math.factorial(n) * lower <= cov <= math.factorial(n) * upper
            assert covolume(scaled) == c**n * cov

    def test_lattice_sandwich(self):
        # the complement region is squeezed between two exact lattice counts:
        # cubes fully inside it and cubes covering it (both via polytope
        # membership of lattice points, independent of the triangulation)
        from itertools import product as iproduct

        for i in range(25):
            n = 2 + i % 2
            J = random_ideal(seed=2700 + i, n=n, max_exp=5, max_gens=5, force_zero_dim=True)
            P = build_polytope(J)
            from staircase.ideals import pure_power_degrees

            box = pure_power_degrees(J)
            outer = inner = 0
            for u in iproduct(*[range(b) for b in box]):
                if not P.contains_point(u):
                    outer += 1
                    if not P.contains_point(tuple(c + 1 for c in u)):
                        inner += 1
            factor = math.factorial(n)
            assert factor * inner <= covolume(J) <= factor * outer


class TestScaleLimits:
    def test_huge_exponents_use_exact_big_integers(self):
        # exponents whose products overflow 64 bits stay exact: the facet
        # kernel works on Python integers throughout
        a = 10**7
        J = MonomialIdeal(3, [(a, 0, 0), (0, a, 0), (0, 0, a), (1, 1, 1)])
        mv = compute_mu(J)
        assert mv.mu == 1  # the point (1, 1, 1) pins the diagonal entry
        P = build_polytope(J)
        assert P.contains_point((1, 1, 1))
        assert not P.contains_point((F(1, 2),) * 3)

    def test_five_variables(self):
        J = maximal_ideal_power(5, 1)
        assert compute_mu(J).mu == F(1, 5)
        assert covolume(J) == 1
        ci = MonomialIdeal(5, [tuple(2 if j == i else 0 for j in range(5)) for i in range(5)])
        assert compute_mu(ci).mu == F(2, 5)
        assert covolume(ci) == 2**5


def test_membership_box_scan_matches_colength():
    # points of the polytope inside the pure-power box complement the standard monomials
    from itertools import product as iproduct

    for i in range(20):
        n = 2 + i % 2
        J = random_ideal(seed=1800 + i, n=n, max_exp=5, max_gens=5, force_zero_dim=True)
        P = build_polytope(J)
        from staircase.ideals import pure_power_degrees

        box = pure_power_degrees(J)
        inside_ideal = sum(1 for p in iproduct(*map(range, box)) if J.contains_exponent(p))
        assert math.prod(box) - inside_ideal == colength(J)
