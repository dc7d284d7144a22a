"""Seeded workload corpora for the staircase benchmark.

Every input is generated here, from the workload name and the seed, and
written in the documented JSON ideal format.  Nothing in this module imports
the package, so a change to the program cannot change a workload.

One op is one CLI invocation (``verify``, ``codim2``, ``degenerate`` or
``mu-bound``) on one generated document.  A workload's corpus is a fixed list
of ops; the measured phase repeats whole passes over it.  Each corpus is
stratified (the same mix of dimensions, generator counts and shapes for every
seed) so that seeds change the numbers but not the kind of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Op:
    command: str
    doc: dict
    ideals: int
    expected_mu_bound: str | None = None  # exact value the report must carry


# Tail percentile per workload: a high percentile that leaves at least ten
# ops beyond it in a run, and that falls inside the workload's heaviest
# stratum rather than on the edge between two (see README.md).
TAIL_PERCENTILE = {"suites": 95.0, "high_dim": 80.0, "deep_boxes": 85.0, "degeneration": 95.0}

WORKED_IDEAL = {  # x2^2 * (x1^6, x2^2 + x1^2 x2); its mu upper bound is exactly 3
    "vars": 2,
    "kind": "polynomial",
    "generators": [
        [{"coeff": "1", "exp": [6, 2]}],
        [{"coeff": "1", "exp": [0, 4]}, {"coeff": "1", "exp": [2, 3]}],
    ],
}


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _pure_powers(a: list[int]) -> list[tuple[int, ...]]:
    n = len(a)
    return [tuple(a[i] if j == i else 0 for j in range(n)) for i in range(n)]


def _monomial(n: int, gens) -> dict:
    return {"vars": n, "kind": "monomial", "generators": [list(g) for g in gens]}


def _corpus(items: list[dict]) -> dict:
    return {"kind": "corpus", "items": items}


def _add_generator(rng: random.Random, gens: list, draw) -> None:
    """Append one exponent from draw() that neither divides nor is divided by a generator."""
    for _ in range(100_000):
        q = draw()
        if q is not None and not any(_divides(g, q) or _divides(q, g) for g in gens):
            gens.append(q)
            return
    raise RuntimeError("generator rejection sampling did not converge")


def _deep_point(rng: random.Random, a: list[int]):
    """A point with positive coordinates below the simplex sum u_i / a_i = 1.

    Its coordinates are a_i * f_i / n with f_i in [0.75, 0.85], so it lies at
    a fixed relative depth.  With the pure powers x_i^a_i it cuts the
    simplex into n bounded facets: the polytope has exactly 2n facets, and
    the closure's staircase has the same shape for every seed.
    """
    n = len(a)
    return tuple(max(1, round(ai * rng.uniform(0.75, 0.85) / n)) for ai in a)


def _above_simplex(rng: random.Random, a: list[int]):
    """A point with one zero coordinate just above the simplex: a minimal
    generator that adds facet candidates but never a facet."""
    n = len(a)
    z = rng.randrange(n)
    q = tuple(0 if i == z else rng.randint(1, a[i] - 1) for i in range(n))
    s = sum(Fraction(x, ai) for x, ai in zip(q, a))
    return q if 1 <= s <= Fraction(3, 2) else None


# --- suites: the paper's own traffic -------------------------------------

VERIFY_DIMS = (2, 3, 4, 2, 3, 4)  # one verify document
CODIM2_BATCH = 16
SUITES_ROUNDS = 60  # each round: three verify documents and one codim2 document


def _zero_dim_item(rng: random.Random, n: int, extras: int) -> dict:
    gens = _pure_powers([rng.randint(1, 10) for _ in range(n)])
    while len(gens) < n + extras:
        e = tuple(rng.randint(0, 10) for _ in range(n))
        if any(e):
            gens.append(e)
    return _monomial(n, gens)


def _codim2_item(rng: random.Random, count: int) -> dict:
    gens = []
    while len(gens) < count:
        e = (rng.randint(0, 10), rng.randint(0, 10))
        if any(e):
            gens.append(e)
    return _monomial(2, gens)


def suites(seed: int) -> list[Op]:
    rng = random.Random(f"suites:{seed}")
    ops = []
    k = 0
    for _ in range(SUITES_ROUNDS):
        for _ in range(3):
            items = []
            for n in VERIFY_DIMS:
                items.append(_zero_dim_item(rng, n, k % (9 - n)))  # n + extras <= 8 generators
                k += 1
            ops.append(Op("verify", _corpus(items), len(items)))
        items = [_codim2_item(rng, 2 + i % 7) for i in range(CODIM2_BATCH)]
        ops.append(Op("codim2", _corpus(items), len(items)))
    return ops


# --- high_dim: n = 5 and 6, many generators near a simplex ---------------

def _simplex_ideal(rng: random.Random, a: list[int], extras: int) -> dict:
    gens = _pure_powers(a)
    for _ in range(extras):
        _add_generator(rng, gens, lambda: _above_simplex(rng, a))
    return _monomial(len(a), gens)


def _deep_ideal(rng: random.Random, a: list[int]) -> dict:
    gens = _pure_powers(a)
    _add_generator(rng, gens, lambda: _deep_point(rng, a))
    return _monomial(len(a), gens)


def _shuffled(rng: random.Random, degrees: tuple[int, ...]) -> list[int]:
    """Pure-power degrees: a fixed multiset in seeded order, so the box sizes
    (and with them the op costs) are the same for every seed."""
    a = list(degrees)
    rng.shuffle(a)
    return a


HIGH_DIM_ROUNDS = 4


def high_dim(seed: int) -> list[Op]:
    rng = random.Random(f"high_dim:{seed}")
    ops = []
    for _ in range(HIGH_DIM_ROUNDS):
        # In rising cost: the deep n = 5 ideal is the middle fifth (the median),
        # the two n = 6 ideals the top two fifths (the tail).
        shapes = (
            _simplex_ideal(rng, _shuffled(rng, (3, 4, 5, 5, 6)), 1),  # 6 generators, 461 facet candidates
            _simplex_ideal(rng, _shuffled(rng, (3, 4, 5, 5, 6)), 2),  # 7 generators, 791 candidates
            _deep_ideal(rng, _shuffled(rng, (6, 6, 7, 7, 7))),  # 10 facets: the covolume recursion
            _simplex_ideal(rng, _shuffled(rng, (3, 4, 4, 4, 5, 5)), 0),  # n = 6: 923 candidates, 5x5 minors
            _simplex_ideal(rng, _shuffled(rng, (3, 4, 4, 4, 5, 5)), 0),
        )
        ops.extend(Op("verify", _corpus([doc]), 1) for doc in shapes)
    return ops


# --- deep_boxes: few generators, large exponents -------------------------

DEEP_BOXES_ROUNDS = 5
ANCHOR_EXPONENT = 1000  # the largest box of every pass: sets peak memory


def deep_boxes(seed: int) -> list[Op]:
    rng = random.Random(f"deep_boxes:{seed}")
    ops = []
    for _ in range(DEEP_BOXES_ROUNDS):
        # Three n = 2 ops in five hold the median; the anchor, one in five, holds the tail.
        for n, lo, hi in ((2, 600, 700), (3, 30, 34), (2, 600, 700), (2, 600, 700)):
            ops.append(Op("verify", _corpus([_deep_ideal(rng, [rng.randint(lo, hi) for _ in range(n)])]), 1))
        ops.append(Op("verify", _corpus([_deep_ideal(rng, [ANCHOR_EXPONENT] * 2)]), 1))
    return ops


# --- degeneration: Fraction-heavy Buchberger and truncation --------------

def _poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _shear(f: dict, m: list[list[int]]) -> dict:
    """Substitute x_i -> sum_k m[i][k] x_k (integer coefficients)."""
    n = len(m)
    images = [{tuple(int(k == j) for j in range(n)): m[i][k] for k in range(n) if m[i][k]} for i in range(n)]
    out: dict = {}
    for e, c in f.items():
        term = {(0,) * n: c}
        for i, ei in enumerate(e):
            for _ in range(ei):
                term = _poly_mul(term, images[i])
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return {e: c for e, c in out.items() if c}


def _polynomial(n: int, gens: list[dict]) -> dict:
    return {
        "vars": n,
        "kind": "polynomial",
        "generators": [[{"coeff": str(c), "exp": list(e)} for e, c in sorted(g.items())] for g in gens],
    }


def _origin_ideal(rng: random.Random, n: int, sheared: bool) -> dict:
    """Pure powers of every variable (so the only zero is the origin), one or
    two extra generators of degree <= 4, and optionally a unimodular shear."""
    gens = [{e: 1} for e in _pure_powers([rng.randint(2, 3) for _ in range(n)])]
    for _ in range(rng.randint(1, 2)):
        terms: dict = {}
        for _ in range(rng.randint(2, 3)):
            e = [0] * n
            for _ in range(rng.randint(1, 4)):
                e[rng.randrange(n)] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + rng.choice([1, -1, 2, -2])
        terms = {e: c for e, c in terms.items() if c}
        if terms:
            gens.append(terms)
    if sheared:
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for i in range(1, n):
            for j in range(i):
                m[i][j] = rng.choice([-2, -1, 1, 2])
        gens = [_shear(g, m) for g in gens]
    return _polynomial(n, gens)


DEGENERATION_ROUNDS = 24  # each round: eight degenerate ops and one seeded mu-bound


def degeneration(seed: int) -> list[Op]:
    rng = random.Random(f"degeneration:{seed}")
    ops = []
    for r in range(DEGENERATION_ROUNDS):
        for i in range(8):
            ops.append(Op("degenerate", _origin_ideal(rng, 2 + i % 2, i // 2 % 2 == 1), 1))
        ops.append(Op("mu-bound", _origin_ideal(rng, 2, r % 2 == 1), 1))
        if r % 12 == 6:
            ops.append(Op("mu-bound", WORKED_IDEAL, 1, expected_mu_bound="3"))
    return ops


WORKLOADS = {
    "suites": suites,
    "high_dim": high_dim,
    "deep_boxes": deep_boxes,
    "degeneration": degeneration,
}
