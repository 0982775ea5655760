"""Command-line front end.

One JSON document in, one report out. The input holds named matrices
("A", and "B", "D" or "X" where the command needs them); every matrix uses
the {"rows": m, "cols": n, "data": [[[a0,a1,a2,a3], ...], ...]} schema with
integer or "p/q" components. Reports are byte-deterministic: the same input
always produces the same output.

Exit codes: 0 ok, 2 parse error (including numbers with more digits than
Python converts), 3 validation error, 4 size cap exceeded (including a
result number too long to write), 5 internal inconsistency or numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .cramer import EquationInstance
from .drazin import _index_data, drazin_inverse, limit_residuals, matrix_index
from .errors import (DimensionMismatch, IndexOutOfRange, IndexTooLarge,
                     InternalInconsistency, InvalidOrder, NotHermitian,
                     NumericalFailure, ParseError, SizeCapExceeded, Singular,
                     ValidationError)
from .ncdet import herm_det, principal_minor_sum, rank_by_minors
from .oracle import verify_drazin_axioms
from .qmat import QMatrix
from .quat import rational_to_json

SWEEP_LAMBDAS = (1e-2, 1e-4, 1e-6)

_REQUIRED = {
    "det": ("A",),
    "rank": ("A",),
    "index": ("A",),
    "drazin": ("A",),
    "solve-ax": ("A", "D"),
    "solve-xa": ("A", "D"),
    "solve-axb": ("A", "B", "D"),
    "verify": ("A", "X"),
}

_PARSE_EXITS = (ParseError,)
_VALIDATION_EXITS = (ValidationError, NotHermitian, DimensionMismatch,
                     IndexOutOfRange, InvalidOrder, Singular, IndexTooLarge)
_INTERNAL_EXITS = (InternalInconsistency, NumericalFailure)


@dataclass
class JobSpec:
    """A fully parsed unit of work."""

    command: str
    inputs: Dict[str, QMatrix]
    fmt: str = "json"
    self_check: bool = True
    lambda_sweep: bool = False

    def matrix(self, name: str) -> QMatrix:
        if name not in self.inputs:
            raise ValidationError(f"command {self.command!r} needs matrix {name!r}")
        return self.inputs[name]


def _coefficient_meta(a: QMatrix, suffix: str = "") -> Tuple[Fraction, dict]:
    """The minor-sum denominator of a coefficient, and its meta fields."""
    k, r, _, ak1 = _index_data(a)
    denom = principal_minor_sum(ak1, r) if r > 0 else Fraction(1)
    return denom, {
        f"index{suffix}": k,
        f"rank{suffix}": r,
        f"denominator{suffix}": rational_to_json(denom),
    }


def run(job: JobSpec) -> dict:
    """Execute one command and return the report as a JSON-ready dict."""
    cmd = job.command
    meta = {"command": cmd}
    if cmd == "det":
        return {"det": rational_to_json(herm_det(job.matrix("A"))), "meta": meta}
    if cmd == "rank":
        return {"rank": rank_by_minors(job.matrix("A")), "meta": meta}
    if cmd == "index":
        return {"index": matrix_index(job.matrix("A")), "meta": meta}
    if cmd == "drazin":
        report = drazin_inverse(job.matrix("A"), self_check=job.self_check)
        meta.update({
            "index": report.index,
            "rank": report.rank,
            "denominator": rational_to_json(report.denominator),
            "self_check": job.self_check,
        })
        out = {"X": report.inverse.to_json(), "meta": meta}
        if job.lambda_sweep:
            residuals = limit_residuals(job.matrix("A"), SWEEP_LAMBDAS)
            meta["lambda_sweep"] = [{"lambda": lam, "residual": res}
                                    for lam, res in zip(SWEEP_LAMBDAS, residuals)]
        return out
    if cmd in ("solve-ax", "solve-xa", "solve-axb"):
        kind = {"solve-ax": "AX", "solve-xa": "XA", "solve-axb": "AXB"}[cmd]
        b = job.matrix("B") if kind == "AXB" else None
        instance = EquationInstance(kind=kind, a=job.matrix("A"),
                                    d=job.matrix("D"), b=b)
        x = instance.solve(self_check=job.self_check)
        residual = instance.residual(x)
        if kind == "AXB":
            denom_a, fields_a = _coefficient_meta(instance.a, "_a")
            denom_b, fields_b = _coefficient_meta(instance.b, "_b")
            meta.update(fields_a)
            meta.update(fields_b)
            meta["denominator"] = rational_to_json(denom_a * denom_b)
        else:
            meta.update(_coefficient_meta(instance.a)[1])
        meta["residual_zero"] = residual.is_zero()
        meta["self_check"] = job.self_check
        return {"X": x.to_json(), "residual": residual.to_json(), "meta": meta}
    if cmd == "verify":
        a = job.matrix("A")
        k = matrix_index(a)
        ok = verify_drazin_axioms(a, job.matrix("X"), k)
        meta["index"] = k
        return {"verified": ok, "meta": meta}
    raise ValidationError(f"unknown command {cmd!r}")


# -- rendering --------------------------------------------------------------

def _pretty_matrix(obj: dict, label: str) -> list:
    lines = [f"{label} ="]
    for row in QMatrix.from_json(obj)._data:
        lines.append("  [ " + ", ".join(str(v) for v in row) + " ]")
    return lines


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = []
    for key in ("det", "rank", "index", "verified"):
        if key in report:
            lines.append(f"{key} = {report[key]}")
    for key in ("X", "residual"):
        if key in report:
            lines.extend(_pretty_matrix(report[key], key))
    lines.append("meta:")
    for key in sorted(report["meta"]):
        value = report["meta"][key]
        if key == "lambda_sweep":
            for point in value:
                lines.append(f"  lambda {point['lambda']:g} -> residual {point['residual']:.3e}")
        else:
            lines.append(f"  {key} = {value}")
    return "\n".join(lines) + "\n"


# -- argument parsing and entry point ----------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quatalg",
        description="Exact quaternion matrix computations: Hermitian "
                    "determinants, ranks, Drazin inverses and Cramer-style "
                    "solutions of AX=D, XA=D and AXB=D.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "det": "determinant of the Hermitian matrix A",
        "rank": "rank of the Hermitian matrix A by principal minors",
        "index": "smallest k with rank A^(k+1) = rank A^k",
        "drazin": "Drazin inverse of the Hermitian matrix A",
        "solve-ax": "Drazin-inverse solution of A X = D",
        "solve-xa": "Drazin-inverse solution of X A = D",
        "solve-axb": "Drazin-inverse solution of A X B = D",
        "verify": "check the Drazin axioms for the pair (A, X)",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--input", required=True, help="path to the input JSON document")
        cmd.add_argument("--output", default="stdout",
                         help="output path, or 'stdout' (default)")
        cmd.add_argument("--format", choices=("json", "pretty"), default="json")
        cmd.add_argument("--fast", action="store_true",
                         help="skip the dual-formula and axiom self-checks")
        if name == "drazin":
            cmd.add_argument("--lambda-sweep", action="store_true",
                             help="also report shifted-inverse residuals at "
                                  "lambda = 1e-2, 1e-4, 1e-6")
    return parser


def _load_inputs(path: str, command: str) -> Dict[str, QMatrix]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read input file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"input is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # Bytes that are not UTF-8, an integer past Python's digit limit for
        # decimal conversion, or nesting deeper than the parser can follow.
        raise ParseError(f"cannot read the input document: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError("input document must be a JSON object of named matrices")
    matrices = {}
    for name in _REQUIRED[command]:
        if name not in document:
            raise ValidationError(f"command {command!r} needs matrix {name!r} in the input")
        matrices[name] = QMatrix.from_json(document[name])
    return matrices


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        inputs = _load_inputs(args.input, args.command)
        job = JobSpec(command=args.command, inputs=inputs, fmt=args.format,
                      self_check=not args.fast,
                      lambda_sweep=getattr(args, "lambda_sweep", False))
        report = run(job)
        text = render(report, job.fmt)
    except _PARSE_EXITS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_EXITS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except _INTERNAL_EXITS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    if args.output == "stdout":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
