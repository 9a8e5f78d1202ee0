"""Command-line front end.

Subcommands cover the counting tables, explicit enumerations, cumulant
computations with selectable routes (the interval DP by default, the
paper's partition and graph formulas on request), the series identities, and
the self-checks of ``freecactus.verify``.  Output defaults to JSON (one
document per result record); rationals are always rendered as "p/q"
strings so nothing is ever rounded.  Exit codes: 0 success, 1 a
verification or route-agreement failure, 2 usage errors, 3 a resource
cap refused the request."""

from __future__ import annotations

import argparse
import json
import re
import sys

from freecactus import cactus as cactus_mod
from freecactus.cumulants import (
    CumulantSpec,
    WeightMatrix,
    anticommutator_cumulant,
    anticommutator_cumulant_graphwise,
    format_rational,
    parse_spec,
    product_cumulant,
    quadratic_form_cumulant,
    semicircular_anticommutator,
)
from freecactus.dp import ANTICOMMUTATOR_WEIGHTS, PRODUCT_WEIGHTS, dp_cumulants
from freecactus.errors import ResourceCapError, check_cap
from freecactus.partitions import (
    DEFAULT_ENUMERATION_CAP,
    catalan,
    enumerate_nc,
    enumerate_y,
    y_membership,
)
from freecactus.series import (
    DEFAULT_SERIES_ORDER,
    cauchy_polynomial_residual,
    check_functional_equations,
    minverse_closed_form,
    y_count_recursive,
    y_level_counts,
    y_series,
)
from freecactus.verify import SUITES, run_suite

_NUMERIC = re.compile(r"-?[0-9]+(/[0-9]+)?$")


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def parse_range(text: str) -> list[int]:
    """Parse "a..b" (inclusive) or a single "n" into a list of orders."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if lo < 1 or hi < lo:
        raise ValueError(f"bad order range {text!r}; need 1 <= a <= b")
    return list(range(lo, hi + 1))


# ------------------------------------------------------------------ output


def _is_numeric_cell(value) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    return isinstance(value, str) and bool(_NUMERIC.match(value))


def _render_table(rows: list[dict]) -> str:
    """Aligned columns: integers and rationals right-aligned, everything
    else left-aligned, nothing abbreviated."""
    if not rows:
        return ""
    headers = list(rows[0])
    cells = [[_cell_text(r.get(h)) for h in headers] for r in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(headers)
    ]
    numeric = [
        all(_is_numeric_cell(r.get(h)) for r in rows) for h in headers
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()
    ]
    for row in cells:
        parts = []
        for i, text in enumerate(row):
            parts.append(text.rjust(widths[i]) if numeric[i] else text.ljust(widths[i]))
        lines.append("  ".join(parts).rstrip())
    return "\n".join(lines)


def _cell_text(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return " ".join(_cell_text(v) for v in value)
    return str(value)


def _emit_value(value, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(value))
    elif isinstance(value, (list, tuple)):
        print(" ".join(str(v) for v in value))
    else:
        print(value)


def _emit_records(records: list[dict], fmt: str) -> None:
    if fmt == "json":
        for record in records:
            print(json.dumps(record))
    else:
        print(_render_table(records))


def _emit_object(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj))
    else:
        for key, value in obj.items():
            print(f"{key}: {_cell_text(value)}")


# ------------------------------------------------------------------- count


def cmd_count(args) -> int:
    if args.kind == "y":
        _emit_value(y_count_recursive(args.m), args.format)
    elif args.kind == "levels":
        # Polynomial time, but still refused past the cap until a work budget
        # takes its place.
        check_cap(args.m, args.cap, DEFAULT_ENUMERATION_CAP, f"count levels --m {args.m}")
        _emit_value(y_level_counts(args.m), args.format)
    elif args.kind == "nc":
        _emit_value(catalan(args.m), args.format)
    else:
        classes = cactus_mod.enumerate_oriented_cacti(
            args.n, bipartite_only=args.bipartite, cap=args.cap
        )
        _emit_value(len(classes), args.format)
    return 0


# --------------------------------------------------------------- enumerate


def cmd_enumerate(args) -> int:
    if args.kind == "partitions":
        parts = list(enumerate_nc(args.m, cap=args.cap))
        if args.format == "json":
            for p in parts:
                print(json.dumps(p.to_json_obj()))
        else:
            for p in parts:
                print(p.to_text())
        return 0
    if args.kind == "y":
        records = []
        for p in enumerate_y(args.m, cap=args.cap):
            decomposition = y_membership(p)
            records.append(
                {
                    "partition": (
                        p.to_json_obj() if args.format == "json" else p.to_text()
                    ),
                    "level": decomposition.level,
                }
            )
        _emit_records(records, args.format)
        return 0
    classes = cactus_mod.enumerate_oriented_cacti(
        args.n, bipartite_only=args.bipartite, cap=args.cap
    )
    records = []
    for rep, members in classes.values():
        texts = [p.to_text() for p in members]
        if args.format == "json":
            record = rep.to_json_obj()
            record.update(class_size=len(texts), members=texts)
        else:
            record = {
                "signature": " ".join(f"{v},{e}" for v, e in rep.signature),
                "fC": rep.f_c,
                "bipartite": rep.bipartition is not None,
                "class_size": len(texts),
                "members": "; ".join(texts),
            }
        records.append(record)
    _emit_records(records, args.format)
    return 0


# --------------------------------------------------------------- cumulants


# Routes each cumulant target accepts.  dp is the default everywhere; the
# paper's partition and graph routes stay for reproduction, and "both"
# compares those two.
ROUTES = {
    "anticommutator": ("dp", "partition", "graph", "both"),
    "quadratic": ("dp", "partition", "graph", "both"),
    "product": ("dp", "partition"),
    "semicircular-anticom": ("dp", "graph"),
}


def _cumulant_problem(args):
    """The target as dp inputs (specs, weight rows) plus its paper routes,
    each a function of the order."""
    if args.target == "quadratic":
        specs = tuple(parse_spec(text) for text in args.specs)
        with open(args.weights, "r", encoding="utf-8") as handle:
            weights = WeightMatrix.from_json_obj(json.load(handle))
        paper = {
            "partition": lambda n: quadratic_form_cumulant(
                specs, weights, n, route="partition", cap=args.cap
            ),
            "graph": lambda n: quadratic_form_cumulant(
                specs, weights, n, route="graph", cap=args.cap
            ),
        }
        return specs, weights.entries, paper
    a = parse_spec(args.a)
    if args.target == "semicircular-anticom":
        paper = {"graph": lambda n: semicircular_anticommutator(a, n, cap=args.cap)}
        return (a, CumulantSpec.semicircular()), ANTICOMMUTATOR_WEIGHTS, paper
    b = parse_spec(args.b)
    if args.target == "product":
        paper = {"partition": lambda n: product_cumulant(a, b, n, cap=args.cap)}
        return (a, b), PRODUCT_WEIGHTS, paper
    paper = {
        "partition": lambda n: anticommutator_cumulant(a, b, n, cap=args.cap),
        "graph": lambda n: anticommutator_cumulant_graphwise(a, b, n, cap=args.cap),
    }
    return (a, b), ANTICOMMUTATOR_WEIGHTS, paper


def cmd_cumulants(args) -> int:
    orders = parse_range(args.n)
    specs, weights, paper = _cumulant_problem(args)
    # The paper routes run the largest order first, so a cap refuses the
    # request before any smaller order has done its work.
    descending = orders[::-1]
    if args.route == "both":
        pairs = {n: (paper["partition"](n), paper["graph"](n)) for n in descending}
        records = []
        for n in orders:
            left, right = pairs[n]
            records.append(
                {
                    "n": n,
                    "partition": format_rational(left),
                    "graph": format_rational(right),
                    "match": left == right,
                }
            )
        _emit_records(records, args.format)
        return 0 if all(r["match"] for r in records) else 1
    if args.route == "dp":
        kappas = dp_cumulants(specs, weights, orders[-1], cap=args.cap)
        values = {n: kappas[n - 1] for n in orders}
    else:
        values = {n: paper[args.route](n) for n in descending}
    _emit_records(
        [{"n": n, "kappa": format_rational(values[n])} for n in orders],
        args.format,
    )
    return 0


# ------------------------------------------------------------------ series


def cmd_series(args) -> int:
    if args.kind == "counts":
        a, b = y_series(args.order)
        _emit_object({"even": a.to_json_obj(), "odd": b.to_json_obj()}, args.format)
        return 0
    if args.kind == "check":
        report = check_functional_equations(*y_series(args.order))
        _emit_object(report.to_json_obj(), args.format)
        return 0 if report.all_pass else 1
    if args.kind == "minverse":
        _emit_value(minverse_closed_form(args.order).to_json_obj(), args.format)
        return 0
    # cauchy
    residual = cauchy_polynomial_residual(args.moments)
    all_zero = all(c == 0 for c in residual)
    _emit_object(
        {"residual": [format_rational(c) for c in residual], "all_zero": all_zero},
        args.format,
    )
    return 0 if all_zero else 1


# ------------------------------------------------------------------ verify


def cmd_verify(args) -> int:
    summary = run_suite(args.suite, args.seed)
    if args.format == "json":
        print(json.dumps(summary))
    else:
        rows = [
            {"check": r["name"], "pass": r["pass"], "detail": r.get("detail", "")}
            for r in summary["checks"]
        ]
        print(_render_table(rows))
        print(f"{summary['passed']} passed, {summary['failed']} failed")
    return 0 if not summary["failures"] else 1


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format",
        choices=("json", "table"),
        default="json",
        help="output format (default json)",
    )
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument(
        "--cap",
        type=_positive_int,
        default=None,
        help=(
            "ground-set cap override: enumerations default to 16, "
            "the dp route to 60"
        ),
    )

    parser = argparse.ArgumentParser(
        prog="freecactus",
        description=(
            "Exact free-cumulant calculus for anti-commutators and quadratic "
            "forms in free random variables."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser(
        "count", parents=[common], help="counting tables without enumeration output"
    )
    count.add_argument("kind", choices=("y", "levels", "nc", "cacti"))
    count.add_argument("--m", type=_positive_int, help="ground set size")
    count.add_argument("--n", type=_positive_int, help="edge count for cacti")
    count.add_argument(
        "--bipartite", action="store_true", help="restrict cacti to bipartite classes"
    )
    count.set_defaults(func=cmd_count)

    enum = sub.add_parser(
        "enumerate", parents=[common], help="emit the objects themselves"
    )
    enum.add_argument("kind", choices=("partitions", "y", "cacti"))
    enum.add_argument("--m", type=_positive_int, help="ground set size")
    enum.add_argument("--n", type=_positive_int, help="edge count for cacti")
    enum.add_argument(
        "--bipartite", action="store_true", help="restrict cacti to bipartite classes"
    )
    enum.set_defaults(func=cmd_enumerate)

    cum = sub.add_parser(
        "cumulants", parents=[common], help="exact cumulants of combined variables"
    )
    cum.add_argument(
        "target",
        choices=("anticommutator", "product", "semicircular-anticom", "quadratic"),
    )
    cum.add_argument("--a", help="first distribution spec")
    cum.add_argument("--b", help="second distribution spec")
    cum.add_argument(
        "--specs", nargs="+", help="distribution specs for the quadratic form"
    )
    cum.add_argument("--weights", help="JSON weight matrix file")
    cum.add_argument("--n", required=True, help="order or inclusive range a..b")
    cum.add_argument(
        "--route",
        choices=("dp", "partition", "graph", "both"),
        default="dp",
        help="summation route, default dp; by target: "
        + "; ".join(f"{t}: {', '.join(r)}" for t, r in ROUTES.items()),
    )
    cum.set_defaults(func=cmd_cumulants)

    ser = sub.add_parser(
        "series", parents=[output], help="counting series and their identities"
    )
    ser.add_argument("kind", choices=("counts", "check", "minverse", "cauchy"))
    ser.add_argument(
        "--order",
        type=_positive_int,
        default=DEFAULT_SERIES_ORDER,
        help="truncation order",
    )
    ser.add_argument(
        "--moments",
        type=_positive_int,
        default=8,
        help="number of moments feeding the Cauchy residual",
    )
    ser.set_defaults(func=cmd_series)

    ver = sub.add_parser(
        "verify", parents=[output], help="run the self-verification suites"
    )
    ver.add_argument("--suite", choices=("all", *SUITES), default="all")
    ver.add_argument(
        "--seed", type=int, default=1729, help="seed for randomized verification"
    )
    ver.set_defaults(func=cmd_verify)
    return parser


def _validate(parser, args) -> None:
    if args.command == "count":
        if args.kind in ("y", "levels", "nc") and args.m is None:
            parser.error(f"count {args.kind} requires --m")
        if args.kind == "cacti" and args.n is None:
            parser.error("count cacti requires --n")
    if args.command == "enumerate":
        if args.kind in ("partitions", "y") and args.m is None:
            parser.error(f"enumerate {args.kind} requires --m")
        if args.kind == "cacti" and args.n is None:
            parser.error("enumerate cacti requires --n")
    if args.command == "cumulants":
        if args.target in ("anticommutator", "product") and not (args.a and args.b):
            parser.error(f"cumulants {args.target} requires --a and --b")
        if args.target == "semicircular-anticom" and not args.a:
            parser.error("cumulants semicircular-anticom requires --a")
        if args.target == "quadratic" and not (args.specs and args.weights):
            parser.error("cumulants quadratic requires --specs and --weights")
        if args.route not in ROUTES[args.target]:
            parser.error(
                f"cumulants {args.target} takes --route "
                + ", ".join(ROUTES[args.target])
            )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
