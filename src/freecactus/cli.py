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

import functools
import json
import os
import re
import sys
import types

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
        raise ValueError(f"expected a positive integer, got {text}")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text}") from None


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
    summary = run_suite(args.suite) if args.seed is None else run_suite(args.suite, args.seed)
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


# Every request, each once: the options it reads, True where required and
# False where optional.  Every command also reads --format, and setting any
# other option of its command is a usage error, not ignored.  A cumulant
# target's "route" lists the routes it takes: dp, the default, first; the
# paper's partition and graph routes stay for reproduction, "both" compares
# them.  verify takes no kind.
READS = {
    ("count", "y"): {"m": True},
    ("count", "levels"): {"m": True, "cap": False},
    ("count", "nc"): {"m": True},
    ("count", "cacti"): {"n": True, "bipartite": False, "cap": False},
    ("enumerate", "partitions"): {"m": True, "cap": False},
    ("enumerate", "y"): {"m": True, "cap": False},
    ("enumerate", "cacti"): {"n": True, "bipartite": False, "cap": False},
    ("cumulants", "anticommutator"):
        {"a": True, "b": True, "n": True, "cap": False, "route": ("dp", "partition", "graph", "both")},
    ("cumulants", "product"):
        {"a": True, "b": True, "n": True, "cap": False, "route": ("dp", "partition")},
    ("cumulants", "semicircular-anticom"):
        {"a": True, "n": True, "cap": False, "route": ("dp", "graph")},
    ("cumulants", "quadratic"): {"specs": True, "weights": True, "n": True, "cap": False,
                                 "route": ("dp", "partition", "graph", "both")},
    ("series", "counts"): {"order": False},
    ("series", "check"): {"order": False},
    ("series", "minverse"): {"order": False},
    ("series", "cauchy"): {"moments": False},
    ("verify", None): {"suite": False, "seed": False},
}

# Each command: the name of its kind (None where it takes none), and its help.
COMMANDS = {
    "count": ("kind", "counting tables without enumeration output"),
    "enumerate": ("kind", "emit the objects themselves"),
    "cumulants": ("target", "exact cumulants of combined variables"),
    "series": ("kind", "counting series and their identities"),
    "verify": (None, "run the self-verification suites"),
}

# How each option's text is read, and its help.  A function returns the
# value or raises ValueError with the message to print; a tuple lists the
# values of a choice, its default first; bool marks a flag and list one or
# more values.  cumulants reads --n as ORDERS, which parse_range checks.
OPTIONS = {
    "format": (("json", "table"), "output format (default json)"),
    "cap": (_positive_int, f"ground-set cap override: enumerations default to "
                           f"{DEFAULT_ENUMERATION_CAP}, the dp route to {DEFAULT_DP_CAP}"),
    "m": (_positive_int, "ground set size"),
    "n": (_positive_int, "edge count for cacti"),
    "bipartite": (bool, "restrict cacti to bipartite classes"),
    "a": (str, "first distribution spec"),
    "b": (str, "second distribution spec"),
    "specs": (list, "distribution specs for the quadratic form"),
    "weights": (str, "JSON weight matrix file"),
    "route": (("dp", "partition", "graph", "both"), "summation route (default dp)"),
    "order": (_positive_int, f"truncation order (default {DEFAULT_SERIES_ORDER})"),
    "moments": (_positive_int, f"moments in the Cauchy residual (default {DEFAULT_CAUCHY_MOMENTS})"),
    "suite": (("all", *SUITES), "suite to run (default all)"),
    "seed": (_integer, "seed for randomized verification"),
}
ORDERS = (str, "order or inclusive range a..b")

# A negative number is a value, not an option.
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _kinds(command: str) -> tuple[str, ...]:
    """The kinds (for cumulants, the targets) of a command, in table order."""
    return tuple(kind for cmd, kind in READS if cmd == command)


@functools.cache  # parsing leaves the table unchanged: one per process
def build_parser() -> dict:
    """Each command's options, in OPTIONS order, each as (read, help)."""
    names = {command: {"format"} for command in COMMANDS}
    for (command, _kind), row in READS.items():
        names[command].update(row)
    return {
        command: {
            o: ORDERS if (command, o) == ("cumulants", "n") else OPTIONS[o]
            for o in OPTIONS
            if o in names[command]
        }
        for command in COMMANDS
    }


def _spelling(option: str, read) -> str:
    if read is bool:
        return f"--{option}"
    if isinstance(read, tuple):
        return f"--{option} {{{','.join(read)}}}"
    metavar = option.upper()
    return f"--{option} {metavar} [{metavar} ...]" if read is list else f"--{option} {metavar}"


def _usage(command) -> str:
    if command is None:
        return "usage: freecactus [-h] {" + ",".join(COMMANDS) + "} ..."
    kinds = "{" + ",".join(_kinds(command)) + "} " if COMMANDS[command][0] else ""
    return f"usage: freecactus {command} [-h] {kinds}[options]"


def _help(command) -> str:
    if command is None:
        return "\n".join([
            _usage(None), "", "Exact free-cumulant calculus for anti-commutators and quadratic",
            "forms in free random variables.", "", "commands:",
            *(f"  {name:<11}{text}" for name, (_, text) in COMMANDS.items()),
            "", "freecactus <command> --help lists the options each kind reads.",
        ])
    positional, text = COMMANDS[command]
    options = build_parser()[command]
    lines = [_usage(command), "", text, ""]
    if positional:
        lines.append(f"{positional}s and the options each reads ([optional]):")
        for kind in _kinds(command):
            spelled = (
                (_spelling(o, need if isinstance(need, tuple) else options[o][0]), need is True)
                for o, need in READS[command, kind].items()
            )
            lines.append(f"  {kind:<22}" + " ".join(s if needed else f"[{s}]" for s, needed in spelled))
        lines.append("")
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(_spelling(o, read), help_text) for o, (read, help_text) in options.items()]
    width = max(len(spelled) for spelled, _ in rows) + 2
    return "\n".join([*lines, "options:", *(f"  {s:<{width}}{h}" for s, h in rows)])


def _fail(command, message: str):
    """A usage error: the usage line and the message on stderr, exit 2."""
    prog = f"freecactus {command}" if command else "freecactus"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _choice(command, what: str, word: str, choices) -> str:
    if word not in choices:
        listed = ", ".join(map(repr, choices))
        _fail(command, f"argument {what}: invalid choice: {word!r} (choose from {listed})")
    return word


def _is_option(word: str) -> bool:
    return word[:1] == "-" and word != "-" and not _NEGATIVE.match(word) and " " not in word


def _option(command, word: str, names) -> str:
    """The option ``word`` names: -h is help, and --w is w itself or the
    one name that begins with w."""
    if word == "-h":
        return "help"
    head = word[2:] if word[:2] == "--" else ""
    matches = [head] if head in names else [n for n in names if head and n.startswith(head)]
    if len(matches) > 1:
        _fail(command, f"ambiguous option: {word} could match " + ", ".join(f"--{m}" for m in matches))
    if not matches:
        _fail(command, f"unrecognized arguments: {word}")
    return matches[0]


def _parse(argv):
    """The request ``argv`` names, every option of its command set to its
    value or default.  One pass reads the words and checks the request
    against READS; a usage error exits 2, and -h or --help prints the help
    and exits 0."""
    table = build_parser()
    command = kind = None
    given, i = {}, 0
    while i < len(argv):
        word, i = argv[i], i + 1
        if not _is_option(word):
            if command is None:
                command = _choice(None, "command", word, COMMANDS)
            elif kind is None and COMMANDS[command][0]:
                kind = _choice(command, COMMANDS[command][0], word, _kinds(command))
            else:
                _fail(command, f"unrecognized arguments: {word}")
        else:
            options = table[command] if command else {}
            head, eq, text = word.partition("=")
            name = _option(command, head, ("help", *options))
            if name == "help":
                print(_help(command))
                raise SystemExit(0)
            read = options[name][0]
            if read is bool:
                if eq:
                    _fail(command, f"argument --{name}: ignored explicit argument {text!r}")
                given[name] = True
                continue
            stop = i
            while not eq and stop < len(argv) and not _is_option(argv[stop]) and (read is list or stop == i):
                stop += 1
            values, i = ([text] if eq else argv[i:stop]), stop
            if not values:
                _fail(command, f"argument --{name}: expected {'at least ' * (read is list)}one argument")
            if read is list:
                given[name] = values
            elif isinstance(read, tuple):
                given[name] = _choice(command, f"--{name}", values[0], read)
            else:
                try:
                    given[name] = read(values[0])
                except ValueError as exc:
                    _fail(command, f"argument --{name}: {exc}")
    if command is None:
        _fail(None, "the following arguments are required: command")
    positional = COMMANDS[command][0]
    if positional and kind is None:
        _fail(command, f"the following arguments are required: {positional}")
    reads = READS[command, kind]
    required = [option for option, needed in reads.items() if needed is True]
    if not all(given.get(option) for option in required):
        _fail(command, f"{command} {kind} requires " + " and ".join(f"--{o}" for o in required))
    unread = [o for o in table[command] if o in given and o not in reads and o != "format"]
    if unread:
        _fail(command, f"{command} {kind} does not take " + ", ".join(f"--{o}" for o in unread))
    args = {o: read[0] if isinstance(read, tuple) else (False if read is bool else None)
            for o, (read, _help) in table[command].items()}
    args.update(given)
    for option, taken in reads.items():
        if isinstance(taken, tuple) and args[option] not in taken:
            _fail(command, f"{command} {kind} takes --{option} " + ", ".join(taken))
    if positional:
        args[positional] = kind
    return types.SimpleNamespace(command=command, **args)


def main(argv=None) -> int:
    # Answers print at any length: lift the int-string digit limit (3.10.7+) per request.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        # Looked up per call, so a wrapper set on the module is the one run.
        return globals()[f"cmd_{args.command}"](args)
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
