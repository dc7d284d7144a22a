"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single
"acceptance[k] name: PASS/FAIL (time)" line, and then asserts.  All value
comparisons are exact rational equalities or inequalities; the time budgets
are generous for a desktop machine.

acceptance[3] checks the zero-dimensional bounds per dimension: the length
bounds n! * length > covolume and length > n^n mu^n / n! strictly for n >= 2,
where they are theorems, and exact equality for n = 1, where every
zero-dimensional monomial ideal is a pure power x^a with length, covolume and
n * mu all equal to a.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction

from conftest import mix, random_origin_ideal
from staircase import (
    MonomialIdeal,
    PolyIdeal,
    RationalPolynomial,
    ZeroDimReport,
    check_length_preservation,
    colength,
    compute_mu,
    contains_polynomial,
    default_order,
    ideal_power,
    initial_ideal,
    initial_ideal_truncated,
    integral_closure,
    is_power_of_maximal,
    least_certified_mu,
    maximal_ideal_power,
    mu_upper_bound_details,
    multiplicity,
    random_ideal,
    verify_codim2,
    verify_zero_dim,
)
from staircase.invariants import codim2_corpus, zero_dim_corpus

F = Fraction


class _Timer:
    def __init__(self, tag: str, budget_s: float):
        self.tag = tag
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def assert_within_budget(self):
        elapsed = time.perf_counter() - self.t0
        assert elapsed < self.budget, f"{self.tag} took {elapsed:.2f}s, budget {self.budget}s"

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance{self.tag}: {status} ({elapsed:.2f}s)")
        return False


def test_acceptance_1_worked_equality_example(capsys):
    with _Timer("[1] worked two-variable equality example", 1.0) as t:
        J = MonomialIdeal(2, [(6, 2), (0, 4)])
        r = verify_codim2(J)
        assert r.mu == 3
        assert r.b_vector == (0, 2)
        assert r.factor_mult == 2
        assert r.primitive_mult == 12
        assert r.sharp_bound_lhs == 4 * 3 * 2 - 0 + 12 == 36 == 4 * 3**2 == r.sharp_bound_rhs
        assert r.sharp_equality is True
        assert r.boundary_closure_ok is True
        # the closure factors as x2^2 times the closure of the primitive part
        from staircase import shift_ideal

        prim_closure = integral_closure(MonomialIdeal(2, [(6, 0), (0, 2)]))
        assert integral_closure(J) == shift_ideal(prim_closure, (0, 2))
        # ... and the binomial x2^2 + x1^2 x2 stays outside that closure
        f = RationalPolynomial(2, {(0, 2): 1, (2, 1): 1})
        assert contains_polynomial(prim_closure, f) is False
        assert r.violations() == ()
        t.assert_within_budget()


def test_acceptance_2_maximal_ideal_powers(capsys):
    with _Timer("[2] maximal-ideal powers across dimensions", 5.0) as t:
        for n in (1, 2, 3):
            for q in (1, 2, 3, 4, 5):
                J = maximal_ideal_power(n, q)
                assert compute_mu(J).mu == F(q, n)
                assert multiplicity(J) == q**n
                r = verify_zero_dim(J)
                assert r.mult_diagonal_lhs == r.mult_diagonal_rhs  # equality case
                assert r.closure_equality
                assert is_power_of_maximal(J) == q == r.closure_power_q
        t.assert_within_budget()


def _zero_dim_failures(J: MonomialIdeal, r: ZeroDimReport) -> list[str]:
    """Names of the checks a report misses, strict for n >= 2 and exact for n = 1."""
    if J.n >= 2:
        checks = {
            "n!*length > covolume": r.length_volume_lhs > r.length_volume_rhs,
            "length > n^n mu^n / n!": r.length_diagonal_lhs > r.length_diagonal_rhs,
            "mult >= n^n mu^n": r.mult_diagonal_lhs >= r.mult_diagonal_rhs,
            "closure equality iff power of m": r.closure_equality == (r.closure_power_q is not None),
            "closure power q == n*mu": r.closure_power_q is None or F(r.closure_power_q) == J.n * r.mu,
        }
    else:
        a = J.gens[0][0]
        checks = {
            "single generator (a,)": J.gens == ((a,),),
            "length == a": r.length == a,
            "n!*length == covolume == a": r.length_volume_lhs == r.length_volume_rhs == a,
            "length == n^n mu^n / n! == a": r.length_diagonal_lhs == r.length_diagonal_rhs == a,
            "mu == a": r.mu == a,
            "closure equality with q == a": r.closure_equality is True and r.closure_power_q == a,
        }
    failed = [name for name, ok in checks.items() if not ok]
    failed += [f"violations(): {v}" for v in r.violations()]
    return failed


def test_acceptance_3_zero_dimensional_property_suite(capsys):
    with _Timer("[3] zero-dimensional bound suite, 1000 seeded ideals", 60.0) as t:
        ideals = zero_dim_corpus(seed=20260809, count=1000, dims=(1, 2, 3, 4), max_exp=10, max_gens=8)
        assert Counter(J.n for J in ideals) == {1: 250, 2: 250, 3: 250, 4: 250}
        misses = Counter()
        examples = []
        for J in ideals:
            failed = _zero_dim_failures(J, verify_zero_dim(J, fatal=False))
            misses.update((J.n, name) for name in failed)
            if failed and len(examples) < 3:
                examples.append(f"{J}: {', '.join(failed)}")
        t.assert_within_budget()
        assert not misses, (
            "failed checks by dimension: "
            + "; ".join(f"n={n} {name} x{k}" for (n, name), k in sorted(misses.items()))
            + " | first: "
            + " | ".join(examples)
        )


def test_acceptance_4_codimension_two_suite(capsys):
    with _Timer("[4] two-variable factor-bound suite, 1000 seeded ideals", 30.0) as t:
        ideals = codim2_corpus(seed=31415926, count=1000, max_exp=10, max_gens=8)
        for J in ideals:
            r = verify_codim2(J)  # fatal on any violated bound
            assert r.primitive_length_lhs >= r.primitive_length_rhs
            assert r.mult_bound_lhs >= r.mult_bound_rhs
            assert r.sharp_bound_lhs >= r.sharp_bound_rhs
            sharp_slack = r.sharp_bound_lhs - r.sharp_bound_rhs
            weak_slack = r.mult_bound_lhs - r.mult_bound_rhs
            assert sharp_slack <= weak_slack
        t.assert_within_budget()


def test_acceptance_5_degeneration_oracle_equivalence(capsys):
    with _Timer("[5] Groebner vs truncation oracle, 100 ideals", 120.0) as t:
        for i in range(100):
            n = 2 if i % 2 == 0 else 3
            I = random_origin_ideal(mix(271828, i), n)
            order = default_order("grevlex", n)
            assert initial_ideal(I, order) == initial_ideal_truncated(I, order)
            check = check_length_preservation(I, order)
            assert check.equal and check.l_orig == check.l_initial
        t.assert_within_budget()


def test_acceptance_6_power_scaling_law(capsys):
    with _Timer("[6] entry-value and length scaling under powers", 60.0) as t:
        shrank = 0
        for i in range(100):
            n = 2 if i % 2 == 0 else 3
            J = random_ideal(seed=mix(16180, i), n=n, max_exp=6, max_gens=5, force_zero_dim=True)
            mu = compute_mu(J).mu
            e = multiplicity(J)
            gaps = []
            for tt in range(1, 5):
                Jt = ideal_power(J, tt)
                assert compute_mu(Jt).mu == tt * mu  # exact scaling
                val = F(math.factorial(n) * colength(Jt), tt**n)
                assert val >= e  # scaled lengths bound the multiplicity
                gaps.append(val - e)
            if gaps[3] < gaps[0]:
                shrank += 1
        assert shrank >= 95, f"gap shrank in only {shrank}/100 cases"
        t.assert_within_budget()


def test_acceptance_7_mu_upper_bound_attained(capsys):
    with _Timer("[7] degeneration bound tight on the worked ideal", 10.0) as t:
        I = PolyIdeal(
            2,
            (
                RationalPolynomial(2, {(6, 2): 1}),
                RationalPolynomial(2, {(0, 4): 1, (2, 3): 1}),
            ),
        )
        assert least_certified_mu(mu_upper_bound_details(I, trials=8, seed=0)) == 3
        t.assert_within_budget()
