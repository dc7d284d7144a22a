"""Groebner bases, the truncation oracle, and the degeneration pipeline."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import mix, random_origin_ideal
from staircase import (
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
    mu_upper_bound,
    tangent_cone_initial,
)
from staircase.degeneration import monomial_content_split
from staircase.groebner import buchberger, reduce_full
from staircase.macaulay import truncated_length
from staircase.polynomials import poly_ideal_power

F = Fraction


def P(n, *terms):
    """Polynomial from (coeff, exponent) pairs."""
    acc = {}
    for c, e in terms:
        acc[tuple(e)] = acc.get(tuple(e), F(0)) + F(c)
    return RationalPolynomial(n, acc)


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
        gb = list(buchberger(list(BOUNDARY_PRIMITIVE.gens), order))
        for f in BOUNDARY_PRIMITIVE.gens:
            assert reduce_full(f, gb, order).is_zero
        # products of members reduce to zero as well
        assert reduce_full(BOUNDARY_PRIMITIVE.gens[0] * BOUNDARY_PRIMITIVE.gens[1], gb, order).is_zero

    def test_reduced_basis_is_canonical(self):
        order = default_order("grevlex", 2)
        gb1 = buchberger(list(BOUNDARY_PRIMITIVE.gens), order)
        gb2 = buchberger(list(reversed(BOUNDARY_PRIMITIVE.gens)), order)
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

    def test_pair_budget_exhaustion(self):
        from staircase import ResourceError

        I = PolyIdeal(2, (P(2, (1, (1, 0)), (-1, (0, 2))), P(2, (1, (0, 3)))))
        with pytest.raises(ResourceError):
            initial_ideal(I, MonomialOrder("grevlex"), s_pair_budget=0)


class TestExternalCrossValidation:
    def test_reduced_bases_match_sympy(self):
        # the reduced basis is unique per order, so set equality against an
        # unrelated implementation is the strongest possible cross-check
        sp = pytest.importorskip("sympy")
        from staircase.groebner import _monic

        for i in range(20):
            n = 2 if i % 2 == 0 else 3
            I = random_origin_ideal(mix(12321, i), n)
            order = default_order("grevlex", n)
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

            def from_poly(p):
                terms = {}
                for mono, coeff in zip(p.monoms(), p.coeffs()):
                    e = [0] * n
                    for k, ek in enumerate(mono):
                        e[prio[k]] = ek
                    q = sp.Rational(coeff)
                    terms[tuple(e)] = F(int(q.p), int(q.q))
                return RationalPolynomial(n, terms)

            gb = sp.groebner([to_expr(g) for g in I.gens], *ordered, order="grevlex")
            theirs = {tuple(sorted(_monic(from_poly(p), order).terms.items())) for p in gb.polys}
            mine = {tuple(sorted(g.terms.items())) for g in buchberger(list(I.gens), order)}
            assert mine == theirs


class TestTangentCone:
    def test_boundary_ideal_with_monomial_factor(self):
        assert tangent_cone_initial(BOUNDARY_IDEAL) == MonomialIdeal(2, [(6, 2), (0, 4)])

    def test_content_split(self):
        content, prim = monomial_content_split(BOUNDARY_IDEAL)
        assert content == (0, 2)
        assert {tuple(sorted(g.terms)) for g in prim.gens} == {((6, 0),), ((0, 2), (2, 1))}

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

    def test_lowest_form_and_vanishing_order(self):
        g = P(2, (1, (2, 1)), (1, (1, 2)), (1, (4, 0)))
        assert g.order_at_origin() == 3
        assert g.lowest_form() == P(2, (1, (2, 1)), (1, (1, 2)))

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
        assert truncated_length(BOUNDARY_PRIMITIVE) == 12


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
            ins = {t: initial_ideal(poly_ideal_power(I, t), order) for t in (1, 2, 3, 4)}
            for s, t in [(1, 1), (1, 2), (2, 2)]:
                prod = ideal_product(ins[s], ins[t])
                assert ins[s + t].contains_ideal(prod)


class TestMuUpperBound:
    def test_boundary_ideal_attains_three(self):
        assert mu_upper_bound(BOUNDARY_IDEAL, trials=8, seed=0) == 3

    def test_monomial_input_exact(self):
        J = MonomialIdeal(2, [(6, 0), (0, 2)])
        assert mu_upper_bound(PolyIdeal.from_monomial(J)) == compute_mu(J).mu

    def test_weakly_decreasing_in_trials(self):
        I = random_origin_ideal(99, 2)
        b2 = mu_upper_bound(I, trials=2, seed=5)
        b6 = mu_upper_bound(I, trials=6, seed=5)
        assert b6 <= b2

    def test_bound_dominates_true_value_on_monomial_corpus(self):
        # degenerations of a monomial ideal can only increase mu
        from staircase.invariants import random_ideal

        for i in range(6):
            J = random_ideal(seed=60 + i, n=2, max_exp=4, max_gens=4, force_zero_dim=True)
            bound = mu_upper_bound(PolyIdeal.from_monomial(J), trials=3, seed=1)
            assert bound == compute_mu(J).mu

    def test_monomial_factor_bounded(self):
        # principal x y (1 + x y): locally the ideal (x y), whose entry value is 1
        I = PolyIdeal(2, (P(2, (1, (1, 1)), (1, (2, 2))),))
        assert mu_upper_bound(I, trials=2, seed=0) == 1

    def test_non_monomial_common_factor_rejected(self):
        I = PolyIdeal(
            2,
            (P(2, (1, (2, 0)), (1, (1, 1))), P(2, (1, (1, 2)), (1, (0, 3)))),
        )
        with pytest.raises(NotZeroDimensionalError):
            mu_upper_bound(I, trials=2, seed=0, budget=8)


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
                for data in (certify_truncation(I, order) for _, order in _base_trials(n))
            }
            assert len(found) == 1

    def test_certify_truncations_searches_once(self, monkeypatch):
        from staircase import macaulay
        from staircase.degeneration import _base_trials

        I = random_origin_ideal(mix(4242, 1), 3)
        orders = [order for _, order in _base_trials(3)]
        calls = _count_truncations(monkeypatch)
        datas = macaulay.certify_truncations(I, orders)
        N = datas[0].N
        assert calls[: N - 1] == list(range(2, N + 1))
        assert calls[N - 1 :] == [N] * (len(orders) - 1)
        for data, order in zip(datas, orders):
            assert data == macaulay.certify_truncation(I, order)

    def test_degenerate_searches_n_once(self, monkeypatch, tmp_path):
        from staircase.cli import main
        from staircase.ideal_io import ideal_to_document
        from staircase.macaulay import certify_truncation

        I = random_origin_ideal(mix(515, 3), 3)
        N = certify_truncation(I).N
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

        N = certify_truncation(BOUNDARY_PRIMITIVE).N
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
        scaled = PolyIdeal(2, tuple(g.scale(42) for g in halves.gens))
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


def _count_truncations(monkeypatch) -> list[int]:
    """Record the N of every _run_truncation call."""
    from staircase import macaulay

    calls: list[int] = []
    real = macaulay._run_truncation

    def counted(I, N, order):
        calls.append(N)
        return real(I, N, order)

    monkeypatch.setattr(macaulay, "_run_truncation", counted)
    return calls
