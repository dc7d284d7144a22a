"""Report documents: deterministic JSON and flat TSV with exact rationals.

Reports hold the Fractions and tuples their builders computed; the renderers
alone turn them into text.  Every rational is serialized as "p/q" (or "p" for
integers) in both formats, never as a float, so equalities in the reports are
bit-exact.
"""

from __future__ import annotations

import json

from .ideal_io import digit_limit_error, format_rational
from .invariants import Codim2Report, ZeroDimReport

SCHEMA_VERSION = 1
TOOL_NAME = "staircase"


def _gens_compact(ideal) -> str:
    return ";".join(",".join(str(c) for c in g) for g in ideal.gens)


def _bounds(r, *names: str) -> dict:
    """<name>_lhs, <name>_rhs and <name>_slack = lhs - rhs of each named bound of the report r, in order."""
    out = {}
    for name in names:
        lhs, rhs = getattr(r, f"{name}_lhs"), getattr(r, f"{name}_rhs")
        out[f"{name}_lhs"], out[f"{name}_rhs"], out[f"{name}_slack"] = lhs, rhs, lhs - rhs
    return out


def zero_dim_report_dict(r: ZeroDimReport) -> dict:
    return {
        "ideal": _gens_compact(r.ideal),
        "n": r.n,
        "mu": r.mu,
        "lct": 1 / r.mu if r.mu else None,
        "length": r.length,
        "covolume": r.covol,
        "multiplicity": r.mult,
        **_bounds(r, "length_volume", "length_diagonal", "mult_diagonal"),
        "closure_equality": r.closure_equality,
        "closure_power_q": r.closure_power_q,
        "violations": r.violations(),
    }


def codim2_report_dict(r: Codim2Report) -> dict:
    return {
        "ideal": _gens_compact(r.ideal),
        "b1": r.b1,
        "b2": r.b2,
        "b_vector": ",".join(str(c) for c in r.b_vector),
        "factor_mult": r.factor_mult,
        "mu": r.mu,
        "primitive_length": r.primitive_length,
        "primitive_mult": r.primitive_mult,
        **_bounds(r, "primitive_length", "mult_bound", "sharp_bound"),
        "sharp_equality": r.sharp_equality,
        "boundary_closure_ok": r.boundary_closure_ok,
        "violations": r.violations(),
    }


def make_document(command: str, echo: dict, reports: list[dict], version: str, extra: dict | None = None) -> dict:
    doc = {
        "tool": TOOL_NAME,
        "version": version,
        "schema": SCHEMA_VERSION,
        "command": command,
        "input": echo,
    }
    if extra:
        doc.update(extra)
    doc["reports"] = reports
    return doc


def render_json(doc: dict) -> str:
    try:
        return json.dumps(doc, indent=2, default=format_rational) + "\n"
    except ValueError:  # an int past Python's int-to-text limit
        raise digit_limit_error() from None


def _tsv_cell(value, sep: str = ";") -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        inner = "," if sep == ";" else ";"
        return sep.join(_tsv_cell(v, inner) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={_tsv_cell(v, ',')}" for k, v in value.items())
    return str(value)


def render_tsv(doc: dict) -> str:
    reports = doc.get("reports", [])
    if not reports:
        return ""
    header = list(reports[0].keys())
    lines = ["\t".join(header)]
    try:
        for r in reports:
            lines.append("\t".join(_tsv_cell(r.get(k)) for k in header))
    except ValueError:  # an int past Python's int-to-text limit
        raise digit_limit_error() from None
    return "\n".join(lines) + "\n"
