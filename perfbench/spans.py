"""Span tracer for the traced pass, wrapped around freecactus from outside.

``install`` replaces each target function, in every freecactus module
namespace and class that binds it, with a wrapper that records a span.  A
call is one span; a returned generator is timed while it is iterated, one
span per resumption.  Every span records its parent, the span open when it
started.  A pass makes millions of spans, so they are aggregated in memory
per request: per name (calls, items yielded, inclusive and self seconds,
and a per-target measure of the results) and per parent edge.  Self time is
a span's duration minus the durations of its child spans.  Inclusive time
counts only the outermost span of a name, so recursion is not double
counted.

``layer_metrics`` turns a report into the benchmark's per-layer metrics.  A
target missing from the program gives null metrics and a note, so folding
a module away does not break the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from fractions import Fraction
from time import perf_counter
from types import GeneratorType

# (span name, module, attribute path)
TARGETS = (
    ("core_py.iter_nc_blocks", "freecactus._core_py", "iter_nc_blocks"),
    ("core_py.y_level_histogram", "freecactus._core_py", "y_level_histogram"),
    ("core_py.word_profile_counts", "freecactus._core_py", "word_profile_counts"),
    ("partitions.enumerate_nc", "freecactus.partitions", "enumerate_nc"),
    ("partitions.enumerate_y", "freecactus.partitions", "enumerate_y"),
    ("partitions.kreweras", "freecactus.partitions", "kreweras"),
    ("partitions.refines", "freecactus.partitions", "refines"),
    ("partitions.level_counts", "freecactus.partitions", "level_counts"),
    ("cactus.build_graph", "freecactus.cactus", "build_graph"),
    ("cactus.is_connected", "freecactus.cactus", "is_connected"),
    ("cactus.bipartition", "freecactus.cactus", "bipartition"),
    ("cactus.canonical_outercycle", "freecactus.cactus", "canonical_outercycle"),
    ("cactus.enumerate_oriented_cacti", "freecactus.cactus", "enumerate_oriented_cacti"),
    ("cumulants.anticommutator_cumulant", "freecactus.cumulants", "anticommutator_cumulant"),
    (
        "cumulants.anticommutator_cumulant_graphwise",
        "freecactus.cumulants",
        "anticommutator_cumulant_graphwise",
    ),
    ("cumulants.product_cumulant", "freecactus.cumulants", "product_cumulant"),
    ("cumulants.semicircular_anticommutator", "freecactus.cumulants", "semicircular_anticommutator"),
    ("cumulants.even_anticommutator", "freecactus.cumulants", "even_anticommutator"),
    ("cumulants.quadratic_form_cumulant", "freecactus.cumulants", "quadratic_form_cumulant"),
    ("cumulants.moments_from_cumulants", "freecactus.cumulants", "moments_from_cumulants"),
    ("cumulants.cumulants_from_moments", "freecactus.cumulants", "cumulants_from_moments"),
    ("cumulants.oracle_anticommutator_moments", "freecactus.cumulants", "oracle_anticommutator_moments"),
    (
        "cumulants.oracle_anticommutator_cumulants",
        "freecactus.cumulants",
        "oracle_anticommutator_cumulants",
    ),
    ("cumulants.oracle_quadratic_moments", "freecactus.cumulants", "oracle_quadratic_moments"),
    ("cumulants.oracle_quadratic_cumulants", "freecactus.cumulants", "oracle_quadratic_cumulants"),
    ("series.y_count_recursive", "freecactus.series", "y_count_recursive"),
    ("series.y_series", "freecactus.series", "y_series"),
    ("series.TruncatedSeries.mul", "freecactus.series", "TruncatedSeries.__mul__"),
    ("series.comp_inverse", "freecactus.series", "TruncatedSeries.comp_inverse"),
    ("series.cauchy_polynomial_residual", "freecactus.series", "cauchy_polynomial_residual"),
    ("series.check_functional_equations", "freecactus.series", "check_functional_equations"),
    ("cli.main", "freecactus.cli", "main"),
    ("cli.build_parser", "freecactus.cli", "build_parser"),
    ("cli.cmd_count", "freecactus.cli", "cmd_count"),
    ("cli.cmd_enumerate", "freecactus.cli", "cmd_enumerate"),
    ("cli.cmd_cumulants", "freecactus.cli", "cmd_cumulants"),
    ("cli.cmd_series", "freecactus.cli", "cmd_series"),
    ("cli.cmd_verify", "freecactus.cli", "cmd_verify"),
    ("cli.emit_value", "freecactus.cli", "_emit_value"),
    ("cli.emit_records", "freecactus.cli", "_emit_records"),
    ("cli.emit_object", "freecactus.cli", "_emit_object"),
)

# Per-target measure of each call's result, summed into the "value" field.
MEASURES = {
    "cactus.is_connected": lambda connected: int(connected is True),
    "cactus.enumerate_oriented_cacti": len,
}

ROUTES = (
    "cumulants.anticommutator_cumulant",
    "cumulants.anticommutator_cumulant_graphwise",
    "cumulants.product_cumulant",
    "cumulants.semicircular_anticommutator",
    "cumulants.even_anticommutator",
    "cumulants.quadratic_form_cumulant",
)
ORACLE = (
    "cumulants.oracle_anticommutator_moments",
    "cumulants.oracle_anticommutator_cumulants",
    "cumulants.oracle_quadratic_moments",
    "cumulants.oracle_quadratic_cumulants",
)
EMITTERS = ("cli.emit_value", "cli.emit_records", "cli.emit_object")

CALLS, ITEMS, INCLUSIVE, SELF, VALUE = range(5)
FIELDS = ("calls", "items", "inclusive_s", "self_s", "value")


class Tracer:
    """Aggregates spans per request; set ``request`` before each request."""

    def __init__(self):
        self.request = 0
        self.stack = []  # open spans: [name, start, child seconds, parent name]
        self.active = {}  # name -> open span count, for inclusive time
        self.stats = {}  # (request, name) -> [calls, items, inclusive, self, value]
        self.edges = {}  # (request, parent, name) -> [spans, seconds, items]

    def _stat(self, name):
        key = (self.request, name)
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = [0, 0, 0.0, 0.0, 0]
        return stat

    def open(self, name):
        stack = self.stack
        frame = [name, 0.0, 0.0, stack[-1][0] if stack else "request"]
        stack.append(frame)
        self.active[name] = self.active.get(name, 0) + 1
        frame[1] = perf_counter()
        return frame

    def close(self, frame, items=0):
        end = perf_counter()
        name, start, child, parent = frame
        stack = self.stack
        stack.pop()
        duration = end - start
        stat = self._stat(name)
        stat[SELF] += duration - child
        stat[ITEMS] += items
        left = self.active[name] - 1
        self.active[name] = left
        if not left:
            stat[INCLUSIVE] += duration
        if stack:
            stack[-1][2] += duration
        key = (self.request, parent, name)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0, 0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += items

    def wrap(self, name, fn):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
                self._stat(name)[CALLS] += 1
            if measure is not None:
                self._stat(name)[VALUE] += measure(result)
            if isinstance(result, GeneratorType):
                return self._iterate(name, result)
            return result

        return wrapper

    def _iterate(self, name, iterator):
        while True:
            frame = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                self.close(frame)
                return
            except BaseException:
                self.close(frame)
                raise
            self.close(frame, items=1)
            yield item

    def report(self) -> dict:
        return {
            "stats": [
                {"request": r, "name": n, **dict(zip(FIELDS, v))}
                for (r, n), v in sorted(self.stats.items())
            ],
            "edges": [
                {"request": r, "parent": p, "name": n, "spans": v[0], "seconds": v[1], "items": v[2]}
                for (r, p, n), v in sorted(self.edges.items())
            ],
        }


def _resolve(module_name, path):
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap every target that exists; return notes on the ones that do not."""
    namespaces = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "freecactus" and not module_name.startswith("freecactus."):
            continue
        namespaces.append(module)
        namespaces.extend(
            v
            for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == module_name
        )
    notes = []
    for name, module_name, path in targets:
        original = _resolve(module_name, path)
        if original is None:
            notes.append(f"{name}: {module_name}.{path} not found; its metrics are null")
            continue
        wrapper = tracer.wrap(name, original)
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
    return notes


# ----------------------------------------------------------- layer metrics


PER_LAYER = (
    # (metric, unit)
    ("core_py.iter_nc_blocks.items", "count"),
    ("core_py.iter_nc_blocks.s", "s"),
    ("core_py.y_level_histogram.s", "s"),
    ("core_py.word_profile_counts.calls", "count"),
    ("core_py.word_profile_counts.s", "s"),
    ("partitions.enumerate_nc.s", "s"),
    ("partitions.enumerate_y.kept", "count"),
    ("partitions.enumerate_y.keep_ratio", "ratio"),
    ("partitions.kreweras.calls", "count"),
    ("partitions.kreweras.s", "s"),
    ("partitions.refines.calls", "count"),
    ("partitions.refines.s", "s"),
    ("partitions.level_counts.s", "s"),
    ("cactus.build_graph.calls", "count"),
    ("cactus.build_graph.s", "s"),
    ("cactus.is_connected.calls", "count"),
    ("cactus.is_connected.connected_ratio", "ratio"),
    ("cactus.bipartition.s", "s"),
    ("cactus.canonical_outercycle.calls", "count"),
    ("cactus.canonical_outercycle.s", "s"),
    ("cactus.enumerate_oriented_cacti.classes", "count"),
    ("cactus.enumerate_oriented_cacti.s", "s"),
    ("cumulants.routes.s", "s"),
    ("cumulants.moments_from_cumulants.s", "s"),
    ("cumulants.cumulants_from_moments.s", "s"),
    ("cumulants.oracle.s", "s"),
    ("cumulants.profiles_cache.hit_ratio", "ratio"),
    ("cumulants.answer_bits", "bits"),
    ("series.y_count_recursive.s", "s"),
    ("series.y_series.s", "s"),
    ("series.TruncatedSeries.mul.calls", "count"),
    ("series.TruncatedSeries.mul.s", "s"),
    ("series.comp_inverse.s", "s"),
    ("series.cauchy_polynomial_residual.s", "s"),
    ("series.check_functional_equations.s", "s"),
    ("cli.parse.s", "s"),
    ("cli.emit.s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def totals(report: dict, request: int | None = None) -> dict[str, dict]:
    """Per-name sums of the stats, over all requests or over one."""
    out: dict[str, dict] = {}
    for row in report["stats"]:
        if request is not None and row["request"] != request:
            continue
        acc = out.setdefault(row["name"], dict.fromkeys(FIELDS, 0))
        for field in FIELDS:
            acc[field] += row[field]
    return out


def _ratio(part, whole):
    return part / whole if whole else 0.0


def answer_bits(stdouts) -> int:
    """Largest numerator plus denominator bit length among cumulant answers."""
    best = 0
    for stdout in stdouts:
        for line in stdout.splitlines():
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "kappa" in record:
                x = Fraction(record["kappa"])
                best = max(best, x.numerator.bit_length() + x.denominator.bit_length())
    return best


def layer_metrics(report: dict, notes: list[str], outputs) -> dict[str, dict]:
    """The per-layer metrics of a traced pass, except trace.overhead_ratio.

    ``report`` is the tracer report plus ``profiles_cache`` (hits and
    misses, or None); ``outputs`` pairs each request's argv with its stdout.
    """
    t = totals(report)
    missing = {note.split(":", 1)[0] for note in notes}

    def stat(name, field):
        if name in missing:
            return None
        return t.get(name, {}).get(field, 0)

    def group(names, field):
        present = [n for n in names if n not in missing]
        return sum(stat(n, field) for n in present) if present else None

    def ratio(part, whole):
        return None if part is None or whole is None else _ratio(part, whole)

    streamed = sum(
        e["items"]
        for e in report["edges"]
        if e["parent"] == "partitions.enumerate_y"
        and e["name"] == "partitions.enumerate_nc"
    )
    cache = report.get("profiles_cache")
    parse = None
    if "cli.main" not in missing and "cli.build_parser" not in missing:
        parse = stat("cli.main", "self_s") + stat("cli.build_parser", "inclusive_s")
    values = {
        "core_py.iter_nc_blocks.items": stat("core_py.iter_nc_blocks", "items"),
        "core_py.iter_nc_blocks.s": stat("core_py.iter_nc_blocks", "inclusive_s"),
        "core_py.y_level_histogram.s": stat("core_py.y_level_histogram", "inclusive_s"),
        "core_py.word_profile_counts.calls": stat("core_py.word_profile_counts", "calls"),
        "core_py.word_profile_counts.s": stat("core_py.word_profile_counts", "inclusive_s"),
        "partitions.enumerate_nc.s": stat("partitions.enumerate_nc", "self_s"),
        "partitions.enumerate_y.kept": stat("partitions.enumerate_y", "items"),
        "partitions.enumerate_y.keep_ratio": ratio(stat("partitions.enumerate_y", "items"), streamed),
        "partitions.kreweras.calls": stat("partitions.kreweras", "calls"),
        "partitions.kreweras.s": stat("partitions.kreweras", "inclusive_s"),
        "partitions.refines.calls": stat("partitions.refines", "calls"),
        "partitions.refines.s": stat("partitions.refines", "inclusive_s"),
        "partitions.level_counts.s": stat("partitions.level_counts", "inclusive_s"),
        "cactus.build_graph.calls": stat("cactus.build_graph", "calls"),
        "cactus.build_graph.s": stat("cactus.build_graph", "inclusive_s"),
        "cactus.is_connected.calls": stat("cactus.is_connected", "calls"),
        "cactus.is_connected.connected_ratio": ratio(
            stat("cactus.is_connected", "value"), stat("cactus.is_connected", "calls")
        ),
        "cactus.bipartition.s": stat("cactus.bipartition", "inclusive_s"),
        "cactus.canonical_outercycle.calls": stat("cactus.canonical_outercycle", "calls"),
        "cactus.canonical_outercycle.s": stat("cactus.canonical_outercycle", "inclusive_s"),
        "cactus.enumerate_oriented_cacti.classes": stat("cactus.enumerate_oriented_cacti", "value"),
        "cactus.enumerate_oriented_cacti.s": stat("cactus.enumerate_oriented_cacti", "self_s"),
        "cumulants.routes.s": group(ROUTES, "self_s"),
        "cumulants.moments_from_cumulants.s": stat("cumulants.moments_from_cumulants", "inclusive_s"),
        "cumulants.cumulants_from_moments.s": stat("cumulants.cumulants_from_moments", "inclusive_s"),
        "cumulants.oracle.s": group(ORACLE, "self_s"),
        "cumulants.profiles_cache.hit_ratio": (
            None if cache is None else _ratio(cache["hits"], cache["hits"] + cache["misses"])
        ),
        "cumulants.answer_bits": answer_bits(out for argv, out in outputs if argv[0] == "cumulants"),
        "series.y_count_recursive.s": stat("series.y_count_recursive", "inclusive_s"),
        "series.y_series.s": stat("series.y_series", "inclusive_s"),
        "series.TruncatedSeries.mul.calls": stat("series.TruncatedSeries.mul", "calls"),
        "series.TruncatedSeries.mul.s": stat("series.TruncatedSeries.mul", "inclusive_s"),
        "series.comp_inverse.s": stat("series.comp_inverse", "inclusive_s"),
        "series.cauchy_polynomial_residual.s": stat("series.cauchy_polynomial_residual", "self_s"),
        "series.check_functional_equations.s": stat("series.check_functional_equations", "inclusive_s"),
        "cli.parse.s": parse,
        "cli.emit.s": group(EMITTERS, "inclusive_s"),
        "cli.stdout_bytes": sum(len(out.encode()) for _argv, out in outputs),
    }
    units = dict(PER_LAYER)
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}
