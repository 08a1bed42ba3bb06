"""Report assembly and emission.

Structured reports are schema-versioned JSON with sorted keys, so identical
inputs produce byte-identical output.  Text reports carry the same content
in a human-readable layout.  All numbers are exact rationals rendered as
strings; polynomial values use the same grammar the parser accepts, so
report contents re-parse to identical objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .solver import SymmetryBasis, fit_affine_template, fit_time_template
from .tensors import Connection, CurvatureField, TensorField

SCHEMA = "ncw-report/1"


@dataclass
class Report:
    command: str
    flags: dict[str, Any] = field(default_factory=dict)
    structure: dict[str, Any] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)

    def to_structured(self) -> str:
        payload = {
            "schema": SCHEMA,
            "command": self.command,
            "flags": self.flags,
            "structure": self.structure,
            "results": self.results,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in sorted(self.flags.items()):
            lines.append(f"  {key}: {value}")
        if self.structure:
            lines.append("structure:")
            for key, value in sorted(self.structure.items()):
                lines.append(f"  {key}: {value}")
        lines.append("results:")
        lines.extend(_text_block(self.results, indent=2))
        return "\n".join(lines) + "\n"


def _text_block(value: Any, indent: int) -> list[str]:
    pad = " " * indent
    out: list[str] = []
    if isinstance(value, dict):
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (dict, list)):
                out.append(f"{pad}{key}:")
                out.extend(_text_block(sub, indent + 2))
            else:
                out.append(f"{pad}{key}: {sub}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                out.append(f"{pad}-")
                out.extend(_text_block(item, indent + 2))
            else:
                out.append(f"{pad}- {item}")
    else:
        out.append(f"{pad}{value}")
    return out


def emit_report(report: Report, structured: bool) -> str:
    return report.to_structured() if structured else report.to_text()


# ----------------------------------------------------------------------
# renderers for domain objects

def field_components(t: TensorField) -> list[str]:
    return [str(c) for c in t.components]


def connection_entries(conn: Connection) -> list[dict[str, Any]]:
    return [{"index": list(idx), "value": str(sym)} for idx, sym in conn.nonzero.items()]


def curvature_entries(r: CurvatureField) -> list[dict[str, Any]]:
    return [{"index": list(idx), "value": str(value)} for idx, value in r.nonzero.items()]


def generator_label(x: TensorField) -> str:
    """Best-effort template tag for a symmetry field; raw on no fit."""
    affine = fit_affine_template(x)
    if affine is not None:
        parts = []
        for (a, b), w in sorted(affine.omega.items()):
            if w:
                parts.append(f"rotation[{a},{b}]" + ("" if w == 1 else f"*{w}"))
        for i, v in enumerate(affine.beta, start=1):
            if v:
                parts.append(f"boost[{i}]" + ("" if v == 1 else f"*{v}"))
        for i, v in enumerate(affine.sigma, start=1):
            if v:
                parts.append(f"translation[{i}]" + ("" if v == 1 else f"*{v}"))
        if affine.tau:
            parts.append(
                "time-translation" + ("" if affine.tau == 1 else f"*{affine.tau}")
            )
        return " + ".join(parts) if parts else "zero"
    timed = fit_time_template(x)
    if timed is not None:
        def coeff(tag, p):
            return tag if p == 1 else f"{tag}*({p})"

        parts = []
        for (a, b), w in sorted(timed.omega.items()):
            if not w.is_zero:
                parts.append(coeff(f"rotation[{a},{b}]", w))
        for i, r in enumerate(timed.rho, start=1):
            if not r.is_zero:
                parts.append(coeff(f"translation[{i}]", r))
        if timed.tau:
            parts.append(
                "time-translation" + ("" if timed.tau == 1 else f"*{timed.tau}")
            )
        return " + ".join(parts) if parts else "zero"
    return "raw"


def basis_payload(basis: SymmetryBasis) -> dict[str, Any]:
    return {
        "flavor": basis.flavor,
        "degree": basis.degree,
        "dimension": basis.dimension,
        "basis": [
            {"components": field_components(f), "label": generator_label(f)}
            for f in basis.fields
        ],
    }


def constants_payload(constants: list[list[list[Fraction]]]) -> list:
    return [
        [[str(v) for v in row] for row in plane] for plane in constants
    ]
