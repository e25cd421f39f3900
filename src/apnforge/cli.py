"""Command-line front end.

Verbs map one-to-one onto library entry points; every command parses its
inputs, dispatches, and writes one report to standard output.  Anything
diagnostic (progress, timings) goes to standard error so identical
invocations stay byte-identical on stdout.  Exit codes: 0 success, 2 usage
error, 3 domain error (constraint violations, parse failures).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from .ddt import (
    FAMILY_TAGS,
    FamilySpec,
    corollary_bound,
    diff_spectrum,
    family_poly,
    is_apn,
    projective_point_count,
    prop1_check,
)
from .field import MAX_DEGREE, create_field
from .phi import build_phi, build_phi_j, denominator_surface, gold_product
from .poly import (
    ConstraintViolated,
    UniPoly,
    parse_unipoly,
    tri_mul,
)
from .screen import (
    coprime_bruteforce,
    coprime_gold_formula,
    lucas_mod2,
    root_of_unity_audit,
    screen_exceptional,
)


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors name the flag and show a working example."""

    def __init__(self, *args, example: str | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.example = example

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:  # refused by the verb's own parser, so the error shows its example
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        if self.example:
            sys.stderr.write(f"example: {self.example}\n")
        raise SystemExit(2)


def _hex_int(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a hexadecimal value: {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _report(payload: dict, fmt: str) -> None:
    """Write a flat report: sorted JSON, or "key: value" lines with booleans as JSON."""
    if fmt == "json":
        return _emit(payload)
    for key, value in payload.items():
        print(f"{key}: {json.dumps(value) if isinstance(value, bool) else value}")


def _cmd_ddt(args) -> int:
    ctx = create_field(args.n, args.modulus)
    f = parse_unipoly(args.poly, ctx)
    spectrum = diff_spectrum(f, full=args.full, jobs=args.jobs)
    if args.format == "json":
        payload = spectrum.to_json()
        if args.full:
            payload["table"] = {
                str(a): {str(b): c for b, c in sorted(row.items())}
                for a, row in sorted(spectrum.table.items())
            }
        _emit(payload)
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows([("count", "frequency"), *spectrum.histogram()])
    else:
        print(f"n = {ctx.n}  modulus = 0x{ctx.modulus:x}  poly = {f.render()}")
        print(f"uniformity = {spectrum.uniformity}  apn = {str(spectrum.is_apn()).lower()}")
        print("count  frequency")
        for count, freq in spectrum.histogram():
            print(f"{count:>5}  {freq}")
    return 0


def _cmd_apn(args) -> dict:
    ctx = create_field(args.n, args.modulus)
    f = parse_unipoly(args.poly, ctx)
    spectrum = diff_spectrum(f, jobs=args.jobs)
    return {
        "n": ctx.n,
        "poly": f.render(),
        "apn": spectrum.is_apn(),
        "uniformity": spectrum.uniformity,
    }


def _cmd_phi(args) -> int:
    if (args.j is None) == (args.poly is None):
        raise ConstraintViolated("give exactly one of --j or --poly")
    if args.j is not None:
        ctx = create_field(1 if args.n is None else args.n)
        surface = build_phi_j(args.j, ctx)
        payload = {"j": args.j, "surface": surface.render()}
    else:
        if args.n is None:
            raise ConstraintViolated("--poly needs --n for the coefficient field")
        f = parse_unipoly(args.poly, create_field(args.n))
        surface = build_phi(f)
        payload = {"poly": f.render(), "surface": surface.render()}
    if args.format == "plain":
        print(payload["surface"])
    else:
        _emit(payload)
    return 0


def _cmd_gold(args) -> dict:
    if not 1 <= args.k <= MAX_DEGREE:
        raise ConstraintViolated(f"k must be in 1..{MAX_DEGREE}, got {args.k}")
    ctx = create_field(args.k)  # the product's coefficients lie in GF(2)
    product = gold_product(args.k, ctx)
    d = (1 << args.k) + 1
    return {
        "k": args.k,
        "d": d,
        "surface": product.render(),
        "matches_monomial_surface": product == build_phi_j(d, ctx),
    }


def _cmd_coprime(args) -> dict:
    formula = coprime_gold_formula(args.k, args.d) if args.d % 2 else None
    brute = coprime_bruteforce(args.k, args.d)
    return {
        "k": args.k,
        "d": args.d,
        "formula": formula,
        "bruteforce": brute,
        "agree": None if formula is None else formula == brute,
    }


def _cmd_screen(args) -> int:
    ctx = create_field(args.n, args.modulus)
    f = parse_unipoly(args.poly, ctx)
    verdict = screen_exceptional(f)
    if args.format == "plain":
        print(f"status: {verdict.status}")
        print(f"theorem: {verdict.theorem}")
        print(f"heuristic: {str(verdict.heuristic).lower()}")
        for entry in verdict.trace:
            print(f"  {entry['test']}: {entry['outcome']}")
    else:
        print(verdict.to_json())
    return 0


def _cmd_points(args) -> dict:
    ctx = create_field(args.n, args.modulus)
    f = parse_unipoly(args.poly, ctx)
    total = projective_point_count(f)
    d = f.degree()
    bound = corollary_bound(d, ctx.order)
    return {
        "n": ctx.n,
        "poly": f.render(),
        "degree": d,
        "projective_points": total,
        "bound": bound,
        "within_bound": total <= bound,
    }


def _cmd_audit(args) -> dict:
    ambient = None if args.n is None else create_field(args.n)
    report = root_of_unity_audit(args.k, args.m, ambient)
    return {**report.to_json(), "clean": report.clean}


def _family_rows(n: int, check: bool) -> list[dict]:
    rows = []
    for family in FAMILY_TAGS:
        if family in ("gold", "kasami-welch", "welch", "niho", "inverse", "dobbertin"):
            specs = [FamilySpec(family, n, r) for r in range(1, n + 1)]
        elif family == "ekp":
            specs = [FamilySpec(family, n)]
        else:  # bcl: one instance per admissible shift
            specs = [FamilySpec(family, n, 0, s) for s in range(1, n + 1)]
        for spec in specs:
            try:
                f = family_poly(spec)
            except ConstraintViolated:
                continue
            row = {
                "family": family,
                "n": n,
                "r": spec.r,
                "s": spec.s,
                "function": f.render(),
            }
            if check:
                print(f"checking {family} r={spec.r} s={spec.s} ...", file=sys.stderr)
                spectrum = diff_spectrum(f)
                row["uniformity"] = spectrum.uniformity
                row["apn"] = spectrum.is_apn()
            rows.append(row)
    return rows


def _cmd_families(args) -> int:
    create_field(args.n)  # _family_rows skips inadmissible specs, so check n first
    rows = _family_rows(args.n, args.check)
    columns = ["family", "n", "r", "s", "function"] + (
        ["uniformity", "apn"] if args.check else []
    )
    if args.format == "json":
        _emit(rows)
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows([columns] + [[row[c] for c in columns] for row in rows])
    else:
        print("  ".join(columns))
        for row in rows:
            print("  ".join(str(row[c]) for c in columns))
    return 0


def _check(name: str, ok: bool, detail: str = ""):
    return name, bool(ok), detail


def _suite_gold_factorization():
    for k in (2, 3, 4, 5):
        ctx = create_field(k)
        d = (1 << k) + 1
        ok = gold_product(k, ctx) == build_phi_j(d, ctx)
        yield _check(f"product equals surface for k={k}", ok, f"d={d}")


def _suite_coprimality():
    for k in (2, 3, 4, 5):
        bad = [
            d
            for d in range(3, 66, 2)
            if coprime_gold_formula(k, d) != coprime_bruteforce(k, d)
        ]
        yield _check(
            f"formula agrees with scan for k={k}",
            not bad,
            "odd d in [3, 65]" if not bad else f"disagreements: {bad}",
        )
    for k, d, expected in ((2, 9, True), (4, 5, False), (3, 9, False)):
        got = coprime_bruteforce(k, d)
        yield _check(
            f"k={k}, d={d} -> {'coprime' if expected else 'not coprime'}",
            got == expected and coprime_gold_formula(k, d) == expected,
        )


def _suite_families():
    uniform_two = (
        ("gold", FamilySpec("gold", 4, 1)),
        ("gold", FamilySpec("gold", 10, 3)),
        ("kasami-welch", FamilySpec("kasami-welch", 5, 2)),
        ("welch", FamilySpec("welch", 5, 2)),
        ("niho", FamilySpec("niho", 5, 2)),
        ("inverse", FamilySpec("inverse", 5, 2)),
        ("dobbertin", FamilySpec("dobbertin", 5, 1)),
    )
    for family, spec in uniform_two:
        print(f"checking {family} n={spec.n} r={spec.r} ...", file=sys.stderr)
        f = family_poly(spec)
        u = diff_spectrum(f).uniformity
        yield _check(f"{family} r={spec.r} over GF(2^{spec.n}) has uniformity 2", u == 2, f"uniformity={u}")
    for n, e in ((4, 5), (6, 9)):
        ctx = create_field(n)
        u = diff_spectrum(UniPoly(ctx, {e: 1})).uniformity
        yield _check(f"x^{e} over GF(2^{n}) is not APN", u >= 4, f"uniformity={u}")


def _suite_prop1():
    shapes = ({3: 1}, {5: 1}, {7: 1}, {9: 1, 7: 1}, {13: 1})
    for n in (4, 5):
        ctx = create_field(n)
        for terms in shapes:
            f = UniPoly(ctx, terms)
            holds, witness = prop1_check(f)
            apn = is_apn(f)
            yield _check(
                f"{f.render()} over GF(2^{n}): plane criterion iff apn",
                holds == apn,
                f"holds={holds} apn={apn} witness={witness}",
            )


def _suite_lucas():
    pascal = [[1]]
    for a in range(1, 513):
        prev = pascal[-1]
        pascal.append(
            [1] + [(prev[b - 1] + prev[b]) % 2 for b in range(1, a)] + [1]
        )
    bad = [
        (a, b)
        for a in range(513)
        for b in range(a + 1)
        if lucas_mod2(a, b) != pascal[a][b]
    ]
    yield _check("subset rule matches Pascal recursion for a, b <= 512", not bad)
    bad2 = [
        (i, l)
        for i in range(1, 5)
        for l in range(1, 32, 2)
        if lucas_mod2((1 << i) * l + 1, (1 << i) + 1) != 1
    ]
    yield _check("C(2^i*l + 1, 2^i + 1) odd for 1 <= i <= 4, odd l <= 31", not bad2)


def _suite_even_identity():
    ctx = create_field(1)
    d = denominator_surface(ctx)
    for m in range(1, 33):
        lhs = build_phi_j(2 * m, ctx)
        rhs = tri_mul(d, build_phi_j(m, ctx).square())
        yield _check(f"surface of x^{2 * m} equals D * (surface of x^{m})^2", lhs == rhs)


_SUITES = {
    "gold-factorization": _suite_gold_factorization,
    "coprimality": _suite_coprimality,
    "families": _suite_families,
    "prop1": _suite_prop1,
    "lucas": _suite_lucas,
    "even-identity": _suite_even_identity,
}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks = failures = 0
    for name in names:
        start = time.perf_counter()
        for check_name, ok, detail in _SUITES[name]():
            checks += 1
            failures += not ok
            suffix = f"  ({detail})" if detail else ""
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {check_name}{suffix}")
        print(f"{name} finished in {time.perf_counter() - start:.1f}s", file=sys.stderr)
    print(f"summary: {checks} checks, {failures} failures")
    return 0 if failures == 0 else 1


def _add_field_args(sub):
    sub.add_argument("--n", type=int, required=True, help="field degree n of GF(2^n)")
    sub.add_argument(
        "--modulus",
        type=_hex_int,
        default=None,
        help="irreducible modulus as hex (default: built-in table)",
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="apnforge",
        description="Verification toolkit for APN functions over GF(2^n): "
        "differential spectra, surface polynomials, coprimality criteria, "
        "and exceptional-APN screening.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    def formats(p, default, tabular=False):
        choices = ["plain", "json", "csv"] if tabular else ["plain", "json"]
        p.add_argument("--format", choices=choices, default=default)

    p = sub.add_parser(
        "ddt",
        help="differential spectrum of a polynomial",
        example='apnforge ddt --n 5 --poly "x^3" --format csv',
    )
    _add_field_args(p)
    p.add_argument("--poly", required=True, help='polynomial text, e.g. "x^9+0x3*x^5"')
    p.add_argument("--full", action="store_true", help="keep the full (a, b) table (json)")
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes for the scan")
    formats(p, "plain", tabular=True)
    p.set_defaults(func=_cmd_ddt)

    p = sub.add_parser(
        "apn",
        help="APN yes/no plus differential uniformity",
        example='apnforge apn --n 10 --poly "x^3"',
    )
    _add_field_args(p)
    p.add_argument("--poly", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    formats(p, "json")
    p.set_defaults(func=_cmd_apn)

    p = sub.add_parser(
        "phi",
        help="surface polynomial of a monomial (--j) or polynomial (--poly)",
        example="apnforge phi --j 5",
    )
    p.add_argument("--j", type=int, default=None, help="monomial exponent")
    p.add_argument("--poly", default=None)
    p.add_argument("--n", type=int, default=None, help="coefficient field degree for --poly")
    formats(p, "plain")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser(
        "gold",
        help="product of linear forms for 2^k+1 and its identity check",
        example="apnforge gold --k 3",
    )
    p.add_argument("--k", type=int, required=True)
    formats(p, "json")
    p.set_defaults(func=_cmd_gold)

    p = sub.add_parser(
        "coprime",
        help="coprimality of the 2^k+1 surface with the degree-d surface",
        example="apnforge coprime --k 4 --d 5",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    formats(p, "json")
    p.set_defaults(func=_cmd_coprime)

    p = sub.add_parser(
        "screen",
        help="exceptional-APN screening verdict with trace",
        example='apnforge screen --n 5 --poly "x^9+x^7"',
    )
    _add_field_args(p)
    p.add_argument("--poly", required=True)
    formats(p, "json")
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser(
        "points",
        help="projective point count of the surface and the degree bound",
        example='apnforge points --n 5 --poly "x^9+x^7"',
    )
    _add_field_args(p)
    p.add_argument("--poly", required=True)
    formats(p, "json")
    p.set_defaults(func=_cmd_points)

    p = sub.add_parser(
        "audit",
        help="root-of-unity chain audit for odd m = 2^i*l + 1",
        example="apnforge audit --k 2 --m 7",
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="ambient degree (default k)")
    formats(p, "json")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser(
        "families",
        help="named APN family instances available on GF(2^n)",
        example="apnforge families --n 5 --check",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--check", action="store_true", help="also compute uniformity")
    formats(p, "plain", tabular=True)
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser(
        "verify",
        help="run a bundled verification suite",
        example="apnforge verify --suite gold-factorization",
    )
    p.add_argument("--suite", choices=sorted(_SUITES) + ["all"], required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.func(args)  # an exit code, or a flat report for the one writer
        if isinstance(result, dict):
            _report(result, args.format)
            result = 0
        return result
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, ZeroDivisionError) as exc:  # the domain errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
