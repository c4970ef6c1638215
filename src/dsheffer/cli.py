"""Command line interface.

Subcommands: expand, verify (which renders the sections of dorth.verify),
recurrence, functionals, catalog-list.  A source is a built-in family
(--family with --d, --param, --aux) or a couple document (--couple-file).
Exit codes: 0 success / all checks pass, 1 verification failure, 2 invalid
parameters or contract violation, 3 I/O or parse error.

`main(argv)` may be called any number of times in one process: the parser is
built on the first call and reused, and each call parses into a fresh
namespace, so no option value carries over from one call to the next.

Rationals on the command line and in files are exact "p/q" strings; decimal
notation is rejected, and no digit limit applies: `main` lifts Python's
int/str conversion limit while a command runs and restores it after.
Reports are deterministic: identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from dsheffer import catalog, render
from dsheffer.dorth import (
    RegularityViolationError,
    WindowViolationError,
    recurrence_from_couple,
    verify,
)
# not called here; still importable as cli.verify_duality, which perfbench/test_perfbench.py reads
from dsheffer.dorth import verify_duality  # noqa: F401
from dsheffer.exactnum import parse_rational
from dsheffer.operators import FunctionalVector
from dsheffer.series import poly_latex, poly_text
from dsheffer.sheffer import (
    CoupleFileError,
    CoupleSpec,
    InvalidCoupleError,
    couple_from_json_dict,
    expand_from_couple,
    expand_polynomials,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_PARAMS = 2
EXIT_IO = 3


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_param_items(items) -> dict[str, Fraction]:
    params = {}
    for item in items or ():
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise CliError(EXIT_BAD_PARAMS, f"--param expects name=value, got {item!r}")
        key = name.strip()
        if key in params:
            raise CliError(EXIT_BAD_PARAMS, f"--param {key}: given more than once")
        try:
            params[key] = parse_rational(value)
        except ValueError as exc:
            raise CliError(EXIT_BAD_PARAMS, f"--param {name}: {exc}") from None
    return params


def _parse_aux(text: str | None):
    if text is None:
        return None
    try:
        return tuple(parse_rational(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(EXIT_BAD_PARAMS, f"--aux: {exc}") from None


def _resolve_source(args) -> tuple[catalog.FamilySpec | None, CoupleSpec]:
    """(spec, couple) of the command's source; spec is None for a couple file."""
    has_family = getattr(args, "family", None) is not None
    has_file = getattr(args, "couple_file", None) is not None
    if has_family == has_file:
        raise CliError(EXIT_BAD_PARAMS, "give exactly one of --family or --couple-file")
    if has_family:
        if args.family not in catalog.FAMILIES:
            known = ", ".join(catalog.FAMILIES)
            raise CliError(EXIT_BAD_PARAMS, f"unknown family {args.family!r}; known: {known}")
        info = catalog.FAMILIES[args.family]
        d = args.d if args.d is not None else (info.d_fixed or info.d_min)
        spec = catalog.FamilySpec(
            family=args.family,
            d=d,
            params=_parse_param_items(args.param),
            aux=_parse_aux(args.aux),
        )
        return spec, catalog.family_couple(spec)
    if args.d is not None or args.param or args.aux is not None:
        raise CliError(EXIT_BAD_PARAMS, "--d/--param/--aux only apply to --family sources")
    try:
        text = Path(args.couple_file).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(EXIT_IO, f"cannot read couple file: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_IO, f"couple file is not valid JSON: {exc}") from None
    return None, couple_from_json_dict(doc)


def _source_jsonable(spec: catalog.FamilySpec | None, couple: CoupleSpec) -> dict:
    if spec is None:
        return {"kind": "couple", **couple.to_jsonable()}
    return {
        "kind": "family",
        "family": spec.family,
        "d": spec.d,
        "params": {k: str(v) for k, v in spec.params.items()},
        "aux": None if spec.aux is None else [str(a) for a in spec.aux],
    }


def _require_order(N: int, least: int, why: str = ""):
    if N < least:
        raise CliError(EXIT_BAD_PARAMS, f"--order must be at least {least}{why}, got {N}")


def _emit(args, text: str):
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write output: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_doc(args, command: str, N: int, spec, couple: CoupleSpec, **body):
    """Write a command's JSON document: the command, order and source, then `body`."""
    source = _source_jsonable(spec, couple)
    _emit(args, render.dump_json({"command": command, "order": N, "source": source, **body}))


def cmd_expand(args) -> int:
    spec, couple = _resolve_source(args)
    N = args.order
    _require_order(N, 1)
    # each P_n is put in lowest terms once; every format prints from that list
    strings = [p.coeff_strings() for p in expand_from_couple(couple, N)]
    if args.format == render.JSON:
        _emit_doc(args, "expand", N, spec, couple, polynomials=[
            {"n": n, "coeffs": cs, "text": poly_text(cs)} for n, cs in enumerate(strings)
        ])
    elif args.format == render.CSV:
        headers = ["n", "text"] + [f"c{k}" for k in range(N + 1)]
        rows = [[n, poly_text(cs)] + cs + ["0"] * (N + 1 - len(cs))
                for n, cs in enumerate(strings)]
        _emit(args, render.dump_csv(headers, rows))
    else:
        headers = ["$n$", "$P_n(x)$"]
        rows = [[n, f"${poly_latex(cs)}$"] for n, cs in enumerate(strings)]
        _emit(args, render.dump_latex_table(headers, rows, align="r|l"))
    return EXIT_OK


def cmd_verify(args) -> int:
    spec, couple = _resolve_source(args)
    N = args.order
    check_d = args.check_d if args.check_d is not None else couple.d
    if check_d < 1:
        raise CliError(EXIT_BAD_PARAMS, f"--check-d must be >= 1, got {check_d}")
    _require_order(N, check_d + 2, f" for the recurrence at d = {check_d}")
    # a family is checked on its closed-form expansion, a couple file on its own pair
    seq = None if spec is None else expand_polynomials(catalog.family_generating(spec, N), N)
    sections = verify(couple, N, check_d, seq)
    ok = all(s["status"] in ("pass", "skipped") for s in sections.values())
    _emit_doc(args, "verify", N, spec, couple, check_d=check_d,
              overall="pass" if ok else "fail", **sections)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_recurrence(args) -> int:
    spec, couple = _resolve_source(args)
    N = args.order
    d = couple.d
    _require_order(N, d + 2, f" for the recurrence at d = {d}")
    table = recurrence_from_couple(couple, N)  # violations surface as exit 1 via main
    if args.format == render.JSON:
        _emit_doc(args, "recurrence", N, spec, couple, table=table.to_jsonable())
        return EXIT_OK
    rows = [[n] + row for n, row in enumerate(table.row_strings())]
    if args.format == render.CSV:
        headers = ["n"] + [f"alpha_{k}" for k in range(d + 2)]
        _emit(args, render.dump_csv(headers, rows))
    else:
        headers = ["$n$"] + [f"$\\alpha_{{{k},{d}}}(n)$" for k in range(d + 2)]
        body = [[row[0]] + [f"${c}$" for c in row[1:]] for row in rows]
        _emit(args, render.dump_latex_table(headers, body))
    return EXIT_OK


def cmd_functionals(args) -> int:
    spec, couple = _resolve_source(args)
    N = args.order
    d = couple.d
    if args.index is not None and not 0 <= args.index < d:
        raise CliError(EXIT_BAD_PARAMS, f"--index must lie in 0..{d - 1}, got {args.index}")
    indices = range(d) if args.index is None else (args.index,)
    _require_order(N, max(1, d - 1), f" for {d} functionals")

    fv = FunctionalVector(couple, N, d)
    label, moments = (None if spec is None else catalog.explicit_functional(spec)) or (None, None)
    # one (i, m, <u_i, x^m>, cross-check value or None) per row
    rows = [(i, m, value, cross) for i in indices
            for m, (value, cross) in enumerate(zip(
                fv.rows[i].coeffs, [None] * (N + 1) if moments is None else moments(i, N)))]

    if args.format == render.JSON:
        _emit_doc(args, "functionals", N, spec, couple, rows=[
            {"i": i, "m": m, "value": str(value), "evaluator": "operator-series",
             "cross_check": None if cross is None else
             {"evaluator": label, "value": str(cross), "match": cross == value}}
            for i, m, value, cross in rows
        ])
    elif args.format == render.CSV:
        headers = ["i", "m", "value", "evaluator", "cross_evaluator", "cross_value", "match"]
        body = [[i, m, str(value), "operator-series"]
                + (["", "", ""] if cross is None
                   else [label, str(cross), str(cross == value).lower()])
                for i, m, value, cross in rows]
        _emit(args, render.dump_csv(headers, body))
    else:
        headers = ["$i$", "$m$", "$\\langle u_i, x^m\\rangle$", "cross-check"]
        body = [[i, m, f"${value}$",
                 "" if cross is None else f"{label}: {'ok' if cross == value else 'MISMATCH'}"]
                for i, m, value, cross in rows]
        _emit(args, render.dump_latex_table(headers, body, align="rr|rl"))
    matched = all(cross is None or cross == value for _, _, value, cross in rows)
    return EXIT_OK if matched else EXIT_VERIFY_FAIL


def cmd_catalog_list(args) -> int:
    families = [{
        "family": info.family,
        "label": info.label,
        "operator_kind": info.kind,
        "params": list(info.params),
        "aux": info.aux_text,
        "d_min": info.d_min,
        "d_fixed": info.d_fixed,
        "restrictions": info.restrictions,
        "generating_function": info.generating_text,
    } for info in catalog.FAMILIES.values()]
    _emit(args, render.dump_json({"command": "catalog-list", "families": families}))
    return EXIT_OK


def _add_source_args(sub):
    sub.add_argument("--family", help="built-in family id (see catalog-list)")
    sub.add_argument("--couple-file", help="path to a couple JSON document")
    sub.add_argument("--d", type=int, default=None, help="orthogonality order d")
    sub.add_argument("--param", action="append", metavar="NAME=P/Q",
                     help="family parameter (repeatable)")
    sub.add_argument("--aux", metavar="P/Q,...",
                     help="auxiliary polynomial coefficients a_0,a_1,...")


def _add_common_args(sub, formats=True):
    sub.add_argument("--order", type=int, default=16,
                     help="truncation / expansion order N (default 16)")
    sub.add_argument("--out", help="write output to this path instead of stdout")
    if formats:
        sub.add_argument("--format", choices=render.FORMATS, default=render.JSON)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsheffer",
        description="Construct and verify d-orthogonal Sheffer polynomial sets "
                    "with exact rational arithmetic.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("expand", help="expand P_0..P_N from a family or couple")
    _add_source_args(p)
    _add_common_args(p)
    p.set_defaults(handler=cmd_expand)

    p = subs.add_parser("verify", help="run the full verification suite (JSON report)")
    _add_source_args(p)
    _add_common_args(p, formats=False)
    p.add_argument("--check-d", type=int, default=None,
                   help="verify against this d instead of the source's d")
    p.set_defaults(handler=cmd_verify)

    p = subs.add_parser("recurrence", help="extract the (d+2)-term recurrence table")
    _add_source_args(p)
    _add_common_args(p)
    p.set_defaults(handler=cmd_recurrence)

    p = subs.add_parser("functionals", help="tabulate <u_i, x^m> with cross-checks")
    _add_source_args(p)
    _add_common_args(p)
    p.add_argument("--index", type=int, default=None,
                   help="only this functional index i (default: all i < d)")
    p.set_defaults(handler=cmd_functionals)

    p = subs.add_parser("catalog-list", help="list built-in families and restrictions")
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.set_defaults(handler=cmd_catalog_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return int(exc.code or 0)
    # lift Python's int/str digit limit (3.10.7 on) for this command only
    max_digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if max_digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (WindowViolationError, RegularityViolationError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    except CoupleFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (catalog.InvalidParameterError, InvalidCoupleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    finally:
        if max_digits is not None:
            sys.set_int_max_str_digits(max_digits)


if __name__ == "__main__":
    sys.exit(main())
