"""Production facets, covolume, colength and closure against independent oracles.

Each quantity must agree exactly on four corpora: the acceptance[3] corpus,
400 two-variable ideals from the codim-2 suite, random ideals in n = 2..5
with and without zero-dimensionality, and m^q for n <= 4, q <= 5, with and
without each generator (one removal per symmetry orbit, since every
quantity is symmetric in the variables).  The facet and covolume oracles
are exponential in the generator count, so they run on the ideals with at
most MAX_ORACLE_POINTS generators; colength is checked by inclusion-exclusion
up to 12 generators and on all of the m^q family by a closed form.
"""

from __future__ import annotations

import math

import pytest
from oracles import closure_oracle, covolume_oracle, facets_oracle

from staircase import (
    MonomialIdeal,
    build_polytope,
    colength,
    colength_inclusion_exclusion,
    covolume,
    integral_closure,
    is_zero_dimensional,
    maximal_ideal_power,
)
from staircase.invariants import codim2_corpus, random_ideal, zero_dim_corpus

# The candidate oracle tests C(m, k) point subsets per support: m^4 minus a
# generator in four variables (34 points) already takes seconds per ideal.
MAX_ORACLE_POINTS = 21


def _powers() -> list[MonomialIdeal]:
    ideals = []
    for n in (1, 2, 3, 4):
        for q in (1, 2, 3, 4, 5):
            full = maximal_ideal_power(n, q)
            ideals.append(full)
            orbits = set()
            for g in full.gens:
                if len(full.gens) > 1 and tuple(sorted(g)) not in orbits:
                    orbits.add(tuple(sorted(g)))
                    ideals.append(MonomialIdeal(n, [h for h in full.gens if h != g]))
    return ideals


CORPORA = {
    "acceptance3": lambda: zero_dim_corpus(seed=20260809, count=1000, dims=(1, 2, 3, 4), max_exp=10, max_gens=8),
    "codim2": lambda: codim2_corpus(seed=4242, count=400),
    "random": lambda: [
        random_ideal(seed=9000 + i, n=2 + i % 4, max_exp=5, max_gens=7, force_zero_dim=i % 8 < 4) for i in range(400)
    ],
    "powers": _powers,
}


@pytest.fixture(scope="module", params=list(CORPORA))
def corpus(request):
    return CORPORA[request.param]()


def test_facets_and_zero_sets(corpus):
    for J in corpus:
        P = build_polytope(J)
        for f, zero_set in zip(P.facets, P.zero_sets):
            assert zero_set == sum(1 << i for i, p in enumerate(P.points) if f.evaluate(p) == f.rhs), J
        if len(J.gens) <= MAX_ORACLE_POINTS:
            assert tuple((f.coefficients, f.rhs) for f in P.facets) == facets_oracle(J.gens, J.n), J


def test_covolume(corpus):
    for J in corpus:
        if is_zero_dimensional(J) and len(J.gens) <= MAX_ORACLE_POINTS:
            assert covolume(J) == covolume_oracle(J), J


def test_colength(corpus):
    # inclusion-exclusion runs over all 2^m generator subsets
    for J in corpus:
        if is_zero_dimensional(J) and len(J.gens) <= 12:
            assert colength(J) == colength_inclusion_exclusion(J), J


def test_colength_of_powers_closed_form():
    # m^q has the C(q - 1 + n, n) monomials of degree < q as standard
    # monomials; dropping a generator that is not a pure power adds just it
    for J in _powers():
        if is_zero_dimensional(J):
            q = min(sum(g) for g in J.gens)
            full = maximal_ideal_power(J.n, q)
            assert colength(J) == math.comb(q - 1 + J.n, J.n) + len(full.gens) - len(J.gens), J


def test_closure(corpus):
    for J in corpus:
        assert integral_closure(J).gens == closure_oracle(J).gens, J


def test_corpora_cover_both_kinds():
    for name in ("codim2", "random", "powers"):
        kinds = {is_zero_dimensional(J) for J in CORPORA[name]()}
        assert kinds == {True, False}, name
    assert {J.n for J in CORPORA["random"]()} == {2, 3, 4, 5}
