"""The names the benchmark harness imports or wraps exist in the package.

bench/tracing.py skips a wrapper target the package no longer has, so a
rename would silently read 0 in a per-layer metric; this test fails instead.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_imports(path: Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "staircase"
        for alias in node.names
    ]


def _resolves(module: str, attr: str) -> bool:
    """from module import attr works: an attribute, or a submodule."""
    return hasattr(importlib.import_module(module), attr) or importlib.util.find_spec(f"{module}.{attr}") is not None


@pytest.mark.parametrize("name", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_imports_resolve(name):
    for module, attr in _package_imports(BENCH / name):
        assert _resolves(module, attr), f"{name} imports {module}.{attr}"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracing_targets_resolve():
    tracing = _tracing()
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    from staircase.polytope import NewtonPolytope

    assert isinstance(vars(NewtonPolytope).get("facets"), property)


def test_tracing_hooks_read_real_results():
    # each counter hook gets the arguments and the return value of a real
    # call of the function it wraps, so a changed signature or result fails here
    from staircase import MonomialIdeal, PolyIdeal, RationalPolynomial, default_order, initial_ideal
    from staircase.degeneration import _base_trials
    from staircase.macaulay import certify_truncation

    tracing = _tracing()
    J = MonomialIdeal(2, [(6, 0), (2, 1), (0, 2)])
    I = PolyIdeal(2, (RationalPolynomial(2, {(6, 0): 1}), RationalPolynomial(2, {(0, 2): 1, (2, 1): 1})))
    args = {
        "colength": (J,),
        "integral_closure": (J,),
        "initial_ideal": (I, default_order("grevlex", 2)),
        "certify_truncation": (2, I.integer_generators, default_order("grevlex", 2)),
        "mu_upper_bound_details": (I,),
    }
    hooked = [(module, attr, after) for module, attr, _, after in tracing.TARGETS if after is not None]
    assert sorted(attr for _, attr, _ in hooked) == sorted(args)
    tracer = tracing.Tracer()
    for module, attr, after in hooked:
        after(tracer, args[attr], getattr(importlib.import_module(module), attr)(*args[attr]))
    counters = dict(tracer.counters)
    data = certify_truncation(*args["certify_truncation"])
    assert counters["macaulay.certify_N"] == [data.N, 1]
    assert counters["macaulay.rank"] == [data.rank, 1]
    assert counters["groebner.basis_gens"] == [len(initial_ideal(*args["initial_ideal"]).gens), 1]
    trials = len(_base_trials(2)) + 8
    assert counters["degeneration.trials"] == [trials, 1]
    assert counters["degeneration.trials_certified"][1] == 1
    assert 0 < counters["degeneration.trials_certified"][0] <= trials


# sha256 of the per-document stdout digests of each workload's seed-1 corpus,
# as bench/worker.py prints it on its "digest:" line
PINNED_WORKLOAD_DIGESTS = {
    "suites": "5ecb2944947e67bceda8e5a4a9c96ad750efb8509a83c907751a999113057dcf",
    "high_dim": "c5dd9882bbcafe8108539ce8a6fce96359b3e9c974d565569c117c8d3b806461",
    "deep_boxes": "a4bfa5a45dc3008ad6c1affc77dcc924810141c25394236093d008489d5c9782",
    "degeneration": "307d242f6f7e1cb74843a893b68c1eac9298cfea4c4ac8a2bca3fe529206ff76",
}


@pytest.mark.parametrize("workload", list(PINNED_WORKLOAD_DIGESTS))
def test_workload_digests_pinned(monkeypatch, tmp_path, workload):
    # the worker's op, in-process: the same document paths (relative to the
    # checkout, here tmp_path), an empty polytope cache, stdout captured
    import contextlib
    import hashlib
    import io
    import json
    import sys

    from staircase import cli, polytope

    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    monkeypatch.chdir(tmp_path)
    directory = Path(".bench_work") / f"{workload}-1"
    directory.mkdir(parents=True)
    digests = []
    for i, op in enumerate(workloads.WORKLOADS[workload](1)):
        path = f"{directory}/{i:03d}.json"
        Path(path).write_text(json.dumps(op.doc), encoding="utf-8")
        polytope.build_polytope.cache_clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main([op.command, "--input", path])
        digests.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == PINNED_WORKLOAD_DIGESTS[workload]
