"""Command-line surface.

Every operation is exposed as a subcommand with reproducible,
machine-readable output: JSON on stdout (CSV for census sweeps on
request), diagnostics on stderr.  Exit codes: 0 ok, 1 domain error,
2 verification failure, 3 resource/budget error.  Identical inputs and
seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, census, recip, verify
from .errors import DomainError, ResourceError, VerificationError
from .factor import DEFAULT_SEED, factor_count, factorize
from .field import Field, parse_field_spec
from .poly import Poly

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_VERIFY = 2
EXIT_RESOURCE = 3


def _field_from_args(args) -> Field:
    if args.modulus is None:
        return parse_field_spec(args.field)
    try:
        coeffs = [int(tok) for tok in args.modulus.split(",")]
    except ValueError:
        raise DomainError(f"malformed modulus {args.modulus!r}") from None
    return parse_field_spec(args.field, coeffs)


def _parse_a(fld: Field, text: str):
    a = fld.parse(text)
    if not a:
        raise DomainError("the parameter a must be nonzero")
    return a


def _emit(args, payload: dict, extra_meta: dict | None = None) -> None:
    meta = {"field": getattr(args, "field", None) or getattr(args, "fields", None),
            "version": __version__}
    if getattr(args, "modulus", None):
        meta["modulus"] = args.modulus
    if extra_meta:
        meta.update(extra_meta)
    doc = {
        "status": "ok",
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "payload": payload,
        "metadata": meta,
    }
    try:
        text = json.dumps(doc, indent=2)
    except ValueError:  # an exact count past the interpreter's int-to-str digit limit
        raise ResourceError("an output integer has too many digits to print") from None
    sys.stdout.write(text + "\n")


def _poly_args(args):
    """(a, f) from --field, --a and --poly, parsed in that order."""
    fld = _field_from_args(args)
    a = _parse_a(fld, args.a)
    return a, Poly.from_string(fld, args.poly)


def _map_command(op):
    """Handler of a subcommand that sends the poly to op(f, a)."""
    def handler(args) -> int:
        a, f = _poly_args(args)
        out = op(f, a)
        _emit(args, {"input": f.to_string(), "a": str(a),
                     "result": out.to_string(), "pretty": out.pretty()})
        return EXIT_OK
    return handler


def _cmd_classify(args) -> int:
    a, f = _poly_args(args)
    kind = recip.classify(f, a)
    _emit(args, {
        "poly": f.to_string(),
        "a": str(a),
        "verdict": kind.verdict.value,
        "half_degree": kind.half_degree,
    })
    return EXIT_OK


def _cmd_parity(args) -> int:
    a, f = _poly_args(args)
    verdict = recip.parity_indicator(f, a)
    payload = {
        "poly": f.to_string(),
        "a": str(a),
        "verdict": verdict.verdict.value,
        "indicator": str(verdict.indicator),
        "reason": verdict.reason,
    }
    if args.verify:
        r = factor_count(f, with_multiplicity=True, seed=args.seed)
        oracle = {"factor_count_with_multiplicity": r}
        if verdict.verdict is not recip.Parity.NOT_APPLICABLE:
            oracle["agrees"] = verdict.verdict is recip._parity_of(r)
        payload["oracle"] = oracle
    _emit(args, payload, {"seed": args.seed} if args.verify else None)
    return EXIT_OK


def _cmd_factor(args) -> int:
    fld = _field_from_args(args)
    f = Poly.from_string(fld, args.poly)
    result = factorize(f, seed=args.seed)
    _emit(args, {
        "input": f.to_string(),
        "unit": str(result.unit),
        "factors": [{"poly": g.to_string(), "pretty": g.pretty(), "multiplicity": m}
                    for g, m in result.factors],
        "count_distinct": result.count(False),
        "count_with_multiplicity": result.count(True),
    }, {"seed": args.seed})
    return EXIT_OK


def _cmd_count(args) -> int:
    fld = _field_from_args(args)
    a = _parse_a(fld, args.a)
    row = census.census_row(fld, a, args.n, enumerate_too=args.enumerate)
    _emit(args, dict(row.items()))
    return EXIT_OK


def _cmd_census(args) -> int:
    fields = [parse_field_spec(tok) for tok in args.fields.split(",")]
    rows = census.census_sweep(fields, args.nmax)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(census.census_csv(rows))
        except OSError as exc:
            raise DomainError(f"cannot write {args.out}: {exc.strerror}") from None
        _emit(args, {"rows": len(rows), "out": args.out,
                     "all_agree": all(row.agreement for row in rows)})
    elif args.csv:
        sys.stdout.write(census.census_csv(rows))
    else:
        _emit(args, {"rows": [dict(row.items()) for row in rows]})
    if not all(row.agreement for row in rows):
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_verify(args) -> int:
    fld = _field_from_args(args)
    a = _parse_a(fld, args.a)
    report = verify.run_check(args.theorem, fld, a, args.n, seed=args.seed)
    _emit(args, {
        "check": report.check,
        "description": verify.CHECKS[report.check].description,
        "ok": report.ok,
        "checked": report.checked,
        "failures": report.failures,
        "note": report.note,
    }, {"seed": args.seed})
    return EXIT_OK if report.ok else EXIT_VERIFY


def _add_field_args(sub, with_a=True):
    sub.add_argument("--field", required=True,
                     help="field spec: a prime p or p^e, e.g. 5 or 3^2")
    if with_a:
        sub.add_argument("--a", required=True,
                         help="nonzero parameter, element text form (e.g. 4 or 1+2*t)")
    sub.add_argument("--modulus", default=None,
                     help="override the extension modulus: comma-separated "
                          "prime-field coefficients, ascending, monic")


def _add_poly_command(subs, name, help_text, func, poly_help=None):
    sub = subs.add_parser(name, help=help_text)
    _add_field_args(sub)
    sub.add_argument("--poly", required=True, help=poly_help)
    sub.set_defaults(func=func)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfrecip",
        description="Scaled-reciprocal polynomial toolkit over odd finite fields")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    _add_poly_command(subs, "recip", "apply the a-reciprocal operator",
                      _map_command(recip.a_reciprocal),
                      "comma-separated ascending coefficients")
    _add_poly_command(subs, "classify", "self-reciprocal classification", _cmd_classify)
    sub = _add_poly_command(subs, "parity", "parity of the irreducible factor count",
                            _cmd_parity)
    sub.add_argument("--verify", action="store_true",
                     help="also factor with the oracle and compare")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_poly_command(subs, "transform", "quadratic transform x^n f(x + a/x)",
                      _map_command(recip.quadratic_transform))
    _add_poly_command(subs, "invtransform", "invert the quadratic transform",
                      _map_command(recip.inverse_quadratic_transform))

    sub = subs.add_parser("factor", help="factor a polynomial with the oracle")
    _add_field_args(sub, with_a=False)
    sub.add_argument("--poly", required=True)
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.set_defaults(func=_cmd_factor)

    sub = subs.add_parser("count", help="count a-srim polynomials of degree 2n")
    _add_field_args(sub)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--enumerate", action="store_true",
                     help="also count by exhaustive enumeration")
    sub.set_defaults(func=_cmd_count)

    sub = subs.add_parser("census", help="sweep counts over fields, a and n")
    sub.add_argument("--fields", required=True, help="comma-separated field specs")
    sub.add_argument("--nmax", type=int, required=True)
    sub.add_argument("--out", default=None, help="write the CSV to this path")
    sub.add_argument("--csv", action="store_true", help="emit CSV on stdout")
    sub.set_defaults(func=_cmd_census)

    sub = subs.add_parser("verify", help="run a named structural check")
    _add_field_args(sub)
    sub.add_argument("--theorem", required=True, choices=sorted(verify.CHECKS),
                     metavar="CHECK", dest="theorem",
                     help="check id: " + "; ".join(
                         f"{k}: {v.description}" for k, v in verify.CHECKS.items()))
    sub.add_argument("--n", type=int, default=2,
                     help="sweep size parameter (see README; default 2)")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
