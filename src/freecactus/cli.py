"""Command-line front end.

Subcommands cover the counting tables, explicit enumerations, cumulant
computations with selectable routes (the interval DP by default, the
paper's partition and graph formulas on request), the series identities, and
the self-checks of ``freecactus.verify``.  Output defaults to JSON (one
document per result record); rationals are always rendered as "p/q"
strings so nothing is ever rounded.  Exit codes: 0 success, 1 a
verification or route-agreement failure, 2 usage errors, 3 a resource
cap refused the request, 141 stdout was closed early."""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from freecactus import cactus as cactus_mod
from freecactus.cumulants import (
    ANTICOMMUTATOR_WEIGHTS,
    PRODUCT_WEIGHTS,
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
from freecactus.dp import DEFAULT_DP_CAP, dp_cumulants
from freecactus.errors import ResourceCapError, check_cap
from freecactus.partitions import (
    DEFAULT_ENUMERATION_CAP,
    catalan,
    enumerate_connected,
    enumerate_nc,
    enumerate_y,
)
from freecactus.series import (
    DEFAULT_SERIES_ORDER,
    cauchy_polynomial_residual,
    check_functional_equations,
    minverse_closed_form,
    y_count,
    y_level_counts,
    y_series,
)
from freecactus.verify import SUITES, run_suite

_NUMERIC = re.compile(r"-?[0-9]+(/[0-9]+)?$")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # not a number: refused as not positive below
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def parse_range(text: str) -> list[int]:
    """Parse "a..b" (inclusive) or a single "n" into a list of orders."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    except ValueError:
        lo = hi = 0  # not a number: refused as a bad range below
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


def _table_lines(rows):
    """Aligned columns: integers and rationals right-aligned, everything
    else left-aligned, nothing abbreviated.  ``rows`` is iterated twice:
    once for the widths and numeric flags, once for the lines."""
    headers = None
    for r in rows:
        if headers is None:
            headers = list(r)
            widths, numeric = [len(h) for h in headers], [True] * len(headers)
        for i, h in enumerate(headers):
            widths[i] = max(widths[i], len(_cell_text(r.get(h))))
            numeric[i] = numeric[i] and _is_numeric_cell(r.get(h))
    if headers is None:
        yield ""
        return
    yield "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    for r in rows:
        cells = zip((_cell_text(r.get(h)) for h in headers), widths, numeric)
        yield "  ".join(t.rjust(w) if num else t.ljust(w) for t, w, num in cells).rstrip()


class _Replay:
    """A stream that starts afresh on every pass, for a table to measure."""

    def __init__(self, start):
        self.start = start

    def __iter__(self):
        return iter(self.start())


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


def _emit_records(records, fmt: str) -> None:
    """JSON records print as they stream.  A table iterates ``records``
    twice, widths first: pass a list, or a ``_Replay`` to stream it."""
    for line in map(json.dumps, records) if fmt == "json" else _table_lines(records):
        print(line)


def _emit_object(obj: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj))
    else:
        for key, value in obj.items():
            print(f"{key}: {_cell_text(value)}")


# ------------------------------------------------------------------- count


def cmd_count(args) -> int:
    if args.kind == "y":
        _emit_value(y_count(args.m), args.format)
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
        # enumerate_nc checks the cap before the first line; each partition
        # is printed as it streams.
        for p in enumerate_nc(args.m, cap=args.cap):
            print(json.dumps(p.to_json_obj()) if args.format == "json" else p.to_text())
        return 0
    if args.kind == "y":
        # A member of Y(m) has one block per odd element plus its even-only
        # blocks, so its level is its block count less (m + 1) // 2.
        odd = (args.m + 1) // 2
        records = _Replay(lambda: (
            {
                "partition": p.to_json_obj() if args.format == "json" else p.to_text(),
                "level": len(p) - odd,
            }
            for p in enumerate_y(args.m, cap=args.cap)
        ))
        _emit_records(records, args.format)
        return 0
    # The one listing of class members: each class's cactus, then every
    # member's text in stream order.  The signature fixes the bipartition,
    # so it is read once per class; a rejected class maps to None.
    classes = {}
    for p in enumerate_connected(args.n, cap=args.cap):
        cactus = cactus_mod.canonical_outercycle(p)
        if cactus.signature not in classes:
            keep = not args.bipartite or cactus.bipartition is not None
            classes[cactus.signature] = (cactus, []) if keep else None
        entry = classes[cactus.signature]
        if entry is not None:
            entry[1].append(p.to_text())
    records = []
    for rep, texts in filter(None, classes.values()):
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


def _cumulant_problem(args):
    """The target as dp inputs (specs, ``WeightMatrix``) plus its paper
    routes, each a function of the order."""
    if args.target == "quadratic":
        specs = tuple(parse_spec(text) for text in args.specs)
        with open(args.weights, "r", encoding="utf-8") as handle:
            try:
                weights = WeightMatrix.from_json_obj(json.load(handle))
            except ValueError as exc:  # json.JSONDecodeError is one
                raise ValueError(f"weights file {args.weights}: {exc}") from exc
        paper = {
            route: lambda n, route=route: quadratic_form_cumulant(
                specs, weights, n, route=route, cap=args.cap
            )
            for route in ("partition", "graph")
        }
        return specs, weights, paper
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
        records = [
            {"n": n, "partition": format_rational(p), "graph": format_rational(g), "match": p == g}
            for n, (p, g) in sorted(pairs.items())
        ]
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


DEFAULT_CAUCHY_MOMENTS = 8


def cmd_series(args) -> int:
    order = args.order or DEFAULT_SERIES_ORDER
    if args.kind == "counts":
        a, b = y_series(order)
        _emit_object({"even": a.to_json_obj(), "odd": b.to_json_obj()}, args.format)
        return 0
    if args.kind == "check":
        report = check_functional_equations(*y_series(order))
        if args.format == "json":
            print(json.dumps(report.to_json_obj()))
        else:
            rows = [
                {"equation": name, "pass": e["pass"],
                 "first_nonzero_order": e.get("first_nonzero_order"), "residual": e["residual"]}
                for name, e in report.to_json_obj().items()
            ]
            _emit_records(rows, "table")
        return 0 if report.all_pass else 1
    if args.kind == "minverse":
        _emit_value(minverse_closed_form(order).to_json_obj(), args.format)
        return 0
    # cauchy
    residual = cauchy_polynomial_residual(args.moments or DEFAULT_CAUCHY_MOMENTS)
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
        _emit_records(rows, "table")
        print(f"{summary['passed']} passed, {summary['failed']} failed")
    return 0 if not summary["failures"] else 1


# ------------------------------------------------------------------ parser


# Every request of count, enumerate, cumulants and series, each once: the
# options it reads, True where required and False where optional.  Setting
# any other option of its command is a usage error, not ignored.  A cumulant
# target's "route" lists the routes it takes: dp, the default, first; the
# paper's partition and graph routes stay for reproduction, "both" compares them.
READS = {
    ("count", "y"): {"m": True},
    ("count", "levels"): {"m": True, "cap": False},
    ("count", "nc"): {"m": True},
    ("count", "cacti"): {"n": True, "bipartite": False, "cap": False},
    ("enumerate", "partitions"): {"m": True, "cap": False},
    ("enumerate", "y"): {"m": True, "cap": False},
    ("enumerate", "cacti"): {"n": True, "bipartite": False, "cap": False},
    ("cumulants", "anticommutator"):
        {"a": True, "b": True, "cap": False, "route": ("dp", "partition", "graph", "both")},
    ("cumulants", "product"): {"a": True, "b": True, "cap": False, "route": ("dp", "partition")},
    ("cumulants", "semicircular-anticom"): {"a": True, "cap": False, "route": ("dp", "graph")},
    ("cumulants", "quadratic"):
        {"specs": True, "weights": True, "cap": False, "route": ("dp", "partition", "graph", "both")},
    ("series", "counts"): {"order": False},
    ("series", "check"): {"order": False},
    ("series", "minverse"): {"order": False},
    ("series", "cauchy"): {"moments": False},
}


def _kinds(command: str) -> tuple[str, ...]:
    """The kinds (for cumulants, the targets) of a command, in table order."""
    return tuple(kind for cmd, kind in READS if cmd == command)


@functools.cache  # parsing leaves the parser unchanged: one per process
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
        help=(
            f"ground-set cap override: enumerations default to {DEFAULT_ENUMERATION_CAP}, "
            f"the dp route to {DEFAULT_DP_CAP}"
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
    count.add_argument("kind", choices=_kinds("count"))
    count.set_defaults(func=cmd_count)

    enum = sub.add_parser(
        "enumerate", parents=[common], help="emit the objects themselves"
    )
    enum.add_argument("kind", choices=_kinds("enumerate"))
    enum.set_defaults(func=cmd_enumerate)
    for sized in (count, enum):
        sized.add_argument("--m", type=_positive_int, help="ground set size")
        sized.add_argument("--n", type=_positive_int, help="edge count for cacti")
        sized.add_argument(
            "--bipartite", action="store_true", help="restrict cacti to bipartite classes"
        )

    cum = sub.add_parser(
        "cumulants", parents=[common], help="exact cumulants of combined variables"
    )
    routes = {target: READS["cumulants", target]["route"] for target in _kinds("cumulants")}
    cum.add_argument("target", choices=tuple(routes))
    cum.add_argument("--a", help="first distribution spec")
    cum.add_argument("--b", help="second distribution spec")
    cum.add_argument(
        "--specs", nargs="+", help="distribution specs for the quadratic form"
    )
    cum.add_argument("--weights", help="JSON weight matrix file")
    cum.add_argument("--n", required=True, help="order or inclusive range a..b")
    cum.add_argument(
        "--route",
        choices=tuple(dict.fromkeys(r for taken in routes.values() for r in taken)),
        default="dp",
        help="summation route, default dp; by target: "
        + "; ".join(f"{t}: {', '.join(r)}" for t, r in routes.items()),
    )
    cum.set_defaults(func=cmd_cumulants)

    ser = sub.add_parser(
        "series", parents=[output], help="counting series and their identities"
    )
    ser.add_argument("kind", choices=_kinds("series"))
    ser.add_argument(
        "--order", type=_positive_int, help=f"truncation order (default {DEFAULT_SERIES_ORDER})"
    )
    ser.add_argument(
        "--moments",
        type=_positive_int,
        help=f"number of moments feeding the Cauchy residual (default {DEFAULT_CAUCHY_MOMENTS})",
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
    kind = args.target if args.command == "cumulants" else getattr(args, "kind", None)
    reads = READS.get((args.command, kind), {})
    required = [option for option, needed in reads.items() if needed is True]
    if not all(getattr(args, option) for option in required):
        parser.error(f"{args.command} {kind} requires " + " and ".join(f"--{o}" for o in required))
    options = dict.fromkeys(o for (cmd, _), row in READS.items() if cmd == args.command for o in row)
    unread = [o for o in options if o not in reads and getattr(args, o) not in (None, False)]
    if unread:
        parser.error(f"{args.command} {kind} does not take " + ", ".join(f"--{o}" for o in unread))
    if "route" in reads and args.route not in reads["route"]:
        parser.error(f"{args.command} {kind} takes --route " + ", ".join(reads["route"]))


def main(argv=None) -> int:
    # Answers print at any length: lift the int-string digit limit (3.10.7+) per request.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        _validate(parser, args)
        return args.func(args)
    except BrokenPipeError:
        # The reader left early (``| head``): silence the final flush, exit 128 + SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
