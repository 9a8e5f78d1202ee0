"""End-to-end tests of the command line: output schemas, frozen values,
route agreement flags, exit codes, and determinism under a fixed seed.

Everything runs in-process through main() so coverage tools see it; one
subprocess test at the bottom proves the installed entry point works."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import freecactus
from freecactus import _core_py, catalan, enumerate_y
from freecactus import cactus as cactus_mod
from freecactus import cli as cli_mod
from freecactus import cumulants as cumulants_mod
from freecactus.cli import _cell_text, _is_numeric_cell, build_parser, main, parse_range
from freecactus.cumulants import ANTICOMMUTATOR_WEIGHTS, format_rational, parse_spec
from freecactus.dp import dp_cumulants
from freecactus.series import FunctionalEquationReport, TruncatedSeries, check_functional_equations


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(text):
    return [json.loads(line) for line in text.strip().splitlines()]


# ------------------------------------------------------------- parse_range


def test_parse_range_forms():
    assert parse_range("3") == [3]
    assert parse_range("1..5") == [1, 2, 3, 4, 5]
    for text in ("5..1", "0..2", "x", "1..x", "x..3", "1.."):
        with pytest.raises(ValueError, match=rf"^bad order range '{text}'; need 1 <= a <= b$"):
            parse_range(text)


# ------------------------------------------------------------------- count


def test_count_y(capsys):
    code, out, _err = run_cli(capsys, "count", "y", "--m", "8")
    assert code == 0
    assert out.strip() == "155"


def test_count_y_reaches_past_the_enumeration_cap(capsys):
    code, out, _err = run_cli(capsys, "count", "y", "--m", "14")
    assert code == 0
    assert out.strip() == "45474"


def test_count_levels_json_and_table(capsys):
    code, out, _err = run_cli(capsys, "count", "levels", "--m", "11")
    assert code == 0
    assert json.loads(out) == [1344, 460, 30]
    code, out, _err = run_cli(
        capsys, "count", "levels", "--m", "11", "--format", "table"
    )
    assert code == 0
    assert out.strip() == "1344 460 30"


def test_count_nc(capsys):
    code, out, _err = run_cli(capsys, "count", "nc", "--m", "5")
    assert code == 0
    assert out.strip() == "42"


def test_count_cacti(capsys):
    code, out, _err = run_cli(capsys, "count", "cacti", "--n", "2")
    assert code == 0 and out.strip() == "7"
    code, out, _err = run_cli(capsys, "count", "cacti", "--n", "2", "--bipartite")
    assert code == 0 and out.strip() == "3"


# --------------------------------------------------------------- enumerate


def test_enumerate_partitions_frozen_order(capsys):
    code, out, _err = run_cli(capsys, "enumerate", "partitions", "--m", "3")
    assert code == 0
    assert json_lines(out) == [
        [[1], [2], [3]],
        [[1], [2, 3]],
        [[1, 2], [3]],
        [[1, 2, 3]],
        [[1, 3], [2]],
    ]
    code, out, _err = run_cli(
        capsys, "enumerate", "partitions", "--m", "3", "--format", "table"
    )
    assert code == 0
    assert out.splitlines() == ["1|2|3", "1|2 3", "1 2|3", "1 2 3", "1 3|2"]


def test_enumerate_partitions_prints_while_it_streams(capsys, monkeypatch):
    # A stream that breaks after three partitions: those three lines must
    # already be written, so nothing waits for the whole of NC(m).
    plain = _core_py.iter_nc_blocks

    def breaks_after_three(m):
        for i, blocks in enumerate(plain(m)):
            if i == 3:
                raise RuntimeError("stream broken")
            yield blocks

    monkeypatch.setattr(_core_py, "iter_nc_blocks", breaks_after_three)
    with pytest.raises(RuntimeError, match="stream broken"):
        main(["enumerate", "partitions", "--m", "3", "--format", "table"])
    assert capsys.readouterr().out.splitlines() == ["1|2|3", "1|2 3", "1 2|3"]


def test_enumerate_y_prints_while_it_streams(capsys, monkeypatch):
    # The JSON records of Y(m) are printed one by one, as the partitions
    # of enumerate partitions are: three members in, three lines are out.
    plain = _core_py.iter_y_blocks

    def breaks_after_three(m):
        for i, blocks in enumerate(plain(m)):
            if i == 3:
                raise RuntimeError("stream broken")
            yield blocks

    monkeypatch.setattr(_core_py, "iter_y_blocks", breaks_after_three)
    with pytest.raises(RuntimeError, match="stream broken"):
        main(["enumerate", "y", "--m", "4"])
    assert json_lines(capsys.readouterr().out) == [
        {"partition": [[1], [2, 3, 4]], "level": 0},
        {"partition": [[1], [2, 4], [3]], "level": 1},
        {"partition": [[1, 2], [3, 4]], "level": 0},
    ]


def buffered_table(rows):
    """The table as it was rendered with every row held: the reference for
    the two-pass stream."""
    headers = list(rows[0])
    cells = [[_cell_text(r.get(h)) for h in headers] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(headers)]
    numeric = [all(_is_numeric_cell(r.get(h)) for r in rows) for h in headers]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in cells:
        parts = [t.rjust(widths[i]) if numeric[i] else t.ljust(widths[i]) for i, t in enumerate(row)]
        lines.append("  ".join(parts).rstrip())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("m", range(1, 9))
def test_enumerate_y_table_equals_the_buffered_table(capsys, monkeypatch, m):
    # The table streams Y(m) twice, once for the widths and once to print,
    # and prints what the buffered rendering printed.
    plain, starts = _core_py.iter_y_blocks, []

    def counted(*args):
        starts.append(args)
        return plain(*args)

    monkeypatch.setattr(_core_py, "iter_y_blocks", counted)
    code, out, _err = run_cli(capsys, "enumerate", "y", "--m", str(m), "--format", "table")
    assert code == 0
    assert len(starts) == 2
    odd = (m + 1) // 2
    rows = [{"partition": p.to_text(), "level": len(p) - odd} for p in enumerate_y(m)]
    assert out == buffered_table(rows)


def test_enumerate_y_carries_levels(capsys):
    code, out, _err = run_cli(capsys, "enumerate", "y", "--m", "4")
    assert code == 0
    records = json_lines(out)
    assert [r["level"] for r in records] == [0, 1, 0, 0, 0]
    assert records[1]["partition"] == [[1], [2, 4], [3]]


def test_enumerate_cacti_schema(capsys):
    code, out, _err = run_cli(capsys, "enumerate", "cacti", "--n", "2")
    assert code == 0
    records = json_lines(out)
    assert len(records) == 7
    for record in records:
        assert set(record) == {
            "signature",
            "rigid",
            "fC",
            "bipartition",
            "degrees",
            "class_size",
            "members",
        }
        assert record["class_size"] == 2 ** record["fC"]
        assert len(record["members"]) == record["class_size"]
    doubled = [r for r in records if r["signature"] == [[0, 0], [1, 1]]]
    assert len(doubled) == 1 and doubled[0]["class_size"] == 1


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("--n", "4"),
            "3151d6eb5e93adad64eae28e4e413b5deb02d90b4d3cc9473bc12a9489b38b49",
        ),
        (
            ("--n", "4", "--bipartite", "--format", "table"),
            "df0d8d677b5aeeff821f84c83df6d174d22eb0f9e86ff5593be04806defca03d",
        ),
    ],
)
def test_enumerate_cacti_output_is_frozen(capsys, argv, digest):
    # SHA-256 of the stdout the graph-based classification printed: class
    # order, representatives, members and bipartitions are all pinned.
    code, out, _err = run_cli(capsys, "enumerate", "cacti", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of the stdout the listing printed while it read the bipartition
# of every member, not once per class, for every n <= 5 in both formats.
LISTINGS_READING_EVERY_MEMBER = {
    "--n 1 --format json":
        "972e68dbd0785ecd60d525078939a1186a19e71e2ad078d3f88cc734d09b1eec",
    "--n 1 --format table":
        "dfbff5ac2920a6516a0a2616c9596f552f550732f5aae3cab1e739587a116a7b",
    "--n 1 --bipartite --format json":
        "d1dc311e2d2fbbf7aab2c367f280a97c07e98a4ab224b2af158f0d1b7b295bce",
    "--n 1 --bipartite --format table":
        "933296d8d597eed6dfce7689b062f6eeca862e0dac81828de769f7500f7ffece",
    "--n 2 --format json":
        "a9bab7f10e989429aa3683ba39096fbfbb0e713107170ba6988b88c23c95358c",
    "--n 2 --format table":
        "10b1eae4c848b449339fc1108ecf58a39f2b456ab11ce8daca534843462a7fe0",
    "--n 2 --bipartite --format json":
        "3c66c638177e242850e7615f67a03536e45dbbf3116986fd3bd6d5eac52a5b2f",
    "--n 2 --bipartite --format table":
        "5928d91fcbef2107022fbaf034b610e27b044b571523326813e8a1706427dbc0",
    "--n 3 --format json":
        "8e2768d05b89dc673a70f8555fca100afde021be29658c6490b0cd6dd0d3a624",
    "--n 3 --format table":
        "5501bb4bf390e89bfc985f1bcb14834536381d86f1aa14c782fc7036f5744b5d",
    "--n 3 --bipartite --format json":
        "ec452c6f912292b2d6bc4aa8b6992cfb043a76b721f630343d60d80dc737ad8e",
    "--n 3 --bipartite --format table":
        "5e363313ac9a6081131c37d668ad980d47e1cda5be528dbf4773f7df722f388f",
    "--n 4 --format table":
        "aa52881e6e9a495381e6b3c24d6986a5459bc695f4cc2363457537d6e0796f45",
    "--n 4 --bipartite --format json":
        "5ef17698717ba76213b9822029da3b9dae9dacbb58e7ceb5914fdb218bd5323d",
    "--n 5 --format json":
        "0024b3f63d022cac03b8e7965e1d33d67f7d29ecad46becbcc615f8a5ce2eb2d",
    "--n 5 --format table":
        "f54ab7302be77a85de06f66dad5570ea349a71c454c141ba08d1148f57f65cb0",
    "--n 5 --bipartite --format json":
        "76f474e73c6f8b53c086710113b168562d6c63a1f4959b093d757bb0c43a52a3",
    "--n 5 --bipartite --format table":
        "fef2bffc927aac02fd304cfad3bbc7ba30705290982c75fa3599320718a67338",
}


@pytest.mark.parametrize("argv, digest", LISTINGS_READING_EVERY_MEMBER.items())
def test_enumerate_cacti_listing_is_unchanged(capsys, argv, digest):
    code, out, _err = run_cli(capsys, "enumerate", "cacti", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# --------------------------------------------------------------- cumulants


def test_cumulants_anticommutator_poisson_pair(capsys):
    code, out, _err = run_cli(
        capsys,
        "cumulants",
        "anticommutator",
        "--a",
        "poisson:1",
        "--b",
        "poisson:1",
        "--n",
        "1..5",
    )
    assert code == 0
    records = json_lines(out)
    assert [list(r) for r in records] == [["n", "kappa"]] * 5
    assert [r["kappa"] for r in records] == ["2", "10", "52", "310", "1974"]


def test_cumulants_route_both_reports_match(capsys):
    code, out, _err = run_cli(
        capsys,
        "cumulants",
        "anticommutator",
        "--a",
        "cumulants:[2/3,5/2]",
        "--b",
        "cumulants:[-1/2,3]",
        "--n",
        "2",
        "--route",
        "both",
    )
    assert code == 0
    (record,) = json_lines(out)
    assert record == {
        "n": 2,
        "partition": "137/6",
        "graph": "137/6",
        "match": True,
    }


def test_cumulants_graph_route_alone(capsys):
    code, out, _err = run_cli(
        capsys,
        "cumulants",
        "anticommutator",
        "--a",
        "semicircular",
        "--b",
        "semicircular",
        "--n",
        "1..4",
        "--route",
        "graph",
    )
    assert code == 0
    assert [r["kappa"] for r in json_lines(out)] == ["0", "2", "0", "2"]


def test_cumulants_semicircular_anticom(capsys):
    code, out, _err = run_cli(
        capsys,
        "cumulants",
        "semicircular-anticom",
        "--a",
        "semicircular",
        "--n",
        "1..6",
    )
    assert code == 0
    assert [r["kappa"] for r in json_lines(out)] == ["0", "2", "0", "2", "0", "2"]


def test_cumulants_product_poisson_pair_is_catalan(capsys):
    code, out, _err = run_cli(
        capsys,
        "cumulants",
        "product",
        "--a",
        "poisson:1",
        "--b",
        "poisson:1",
        "--n",
        "1..4",
    )
    assert code == 0
    assert [r["kappa"] for r in json_lines(out)] == ["1", "2", "5", "14"]


def test_cumulants_quadratic(capsys, tmp_path):
    w1 = tmp_path / "w1.json"
    w1.write_text(json.dumps([["1"]]))
    code, out, _err = run_cli(
        capsys,
        "cumulants",
        "quadratic",
        "--specs",
        "semicircular",
        "--weights",
        str(w1),
        "--n",
        "2",
    )
    assert code == 0
    assert json_lines(out) == [{"n": 2, "kappa": "1"}]

    w2 = tmp_path / "w2.json"
    w2.write_text(json.dumps([["0", "1"], ["1", "0"]]))
    code, out, _err = run_cli(
        capsys,
        "cumulants",
        "quadratic",
        "--specs",
        "poisson:1",
        "poisson:1",
        "--weights",
        str(w2),
        "--n",
        "1..3",
        "--route",
        "both",
    )
    assert code == 0
    records = json_lines(out)
    assert all(r["match"] for r in records)
    assert [r["partition"] for r in records] == ["2", "10", "52"]


PIN_A = "cumulants:[1,-2,1/3,3/2,-1,2/3]"
PIN_B = "cumulants:[-1/2,1,2,-1/3,1,-2]"
PIN_C = "cumulants:[2/3,0,-1,1/2,3]"
PAPER_ROUTES = ("partition", "graph", "both")


@pytest.mark.parametrize(
    "target, inputs, weights, routes, kappas",
    [
        (
            "anticommutator",
            ("--a", PIN_A, "--b", PIN_B),
            None,
            PAPER_ROUTES,
            ["-1", "-2", "44/3", "117/2", "-2003/9"],
        ),
        (
            "quadratic",
            ("--specs", PIN_A, PIN_B),
            [["0", "3/2"], ["3/2", "-1"]],
            PAPER_ROUTES,
            ["-11/4", "-77/6", "241/2", "183661/288", "-2645779/288"],
        ),
        (
            "quadratic",
            ("--specs", PIN_A, PIN_B, PIN_C),
            [["1", "0", "2"], ["0", "-1/2", "1/3"], ["2", "1/3", "0"]],
            PAPER_ROUTES,
            [
                "59/72",
                "-11591/324",
                "2199787/5832",
                "-329238005/157464",
                "-18470889169/1889568",
            ],
        ),
        (
            "product",
            ("--a", PIN_A, "--b", PIN_B),
            None,
            ("partition",),
            ["-1/2", "1/2", "119/24", "195/32", "-677/32"],
        ),
        (
            "semicircular-anticom",
            ("--a", PIN_A),
            None,
            ("graph",),
            ["0", "0", "0", "-143/3", "0", "2458/3", "0", "-11071", "0", "3621656/27"],
        ),
    ],
    ids=["anticommutator", "quadratic-k2", "quadratic-k3", "product", "semicircular"],
)
def test_paper_route_stdout_is_pinned(capsys, tmp_path, target, inputs, weights, routes, kappas):
    # Cactus routes up to n = 5 edges; the answers were printed by the
    # graph-based classification, byte for byte.
    if weights is not None:
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(weights))
        inputs += ("--weights", str(path))
    orders = f"1..{len(kappas)}"
    for route in routes:
        code, out, _err = run_cli(
            capsys, "cumulants", target, *inputs, "--n", orders, "--route", route
        )
        assert code == 0
        if route == "both":
            records = [
                {"n": n, "partition": k, "graph": k, "match": True}
                for n, k in enumerate(kappas, start=1)
            ]
        else:
            records = [{"n": n, "kappa": k} for n, k in enumerate(kappas, start=1)]
        assert out == "".join(json.dumps(r) + "\n" for r in records)


def test_cumulants_table_alignment(capsys):
    code, out, _err = run_cli(
        capsys,
        "cumulants",
        "product",
        "--a",
        "poisson:1",
        "--b",
        "poisson:1",
        "--n",
        "1..4",
        "--format",
        "table",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["n", "kappa"]
    assert lines[-1].endswith("14")
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1  # right-aligned numeric columns share a width


@pytest.mark.parametrize(
    "target, paper_route, specs, orders",
    [
        ("anticommutator", "partition", ("--a", "cumulants:[2/3,-5/2,1,3]", "--b", "poisson:3/2"), "1..5"),
        ("anticommutator", "partition", ("--a", "cumulants:[-1/2,3,0,2/3]", "--b", "semicircular"), "1..5"),
        ("product", "partition", ("--a", "cumulants:[1/3,-2,5/2]", "--b", "poisson:2"), "1..6"),
        ("semicircular-anticom", "graph", ("--a", "cumulants:[1,-1/2,2,3/2]"), "1..8"),
    ],
)
def test_default_dp_route_is_byte_identical_to_the_paper_route(
    capsys, target, paper_route, specs, orders
):
    code, default, _err = run_cli(capsys, "cumulants", target, *specs, "--n", orders)
    assert code == 0
    code, paper, _err = run_cli(
        capsys, "cumulants", target, *specs, "--n", orders, "--route", paper_route
    )
    assert code == 0
    assert default == paper


def test_default_route_reaches_past_the_enumeration_cap(capsys):
    code, out, _err = run_cli(
        capsys,
        "cumulants",
        "anticommutator",
        "--a",
        "poisson:1",
        "--b",
        "poisson:1",
        "--n",
        "9..10",
        "--format",
        "table",
    )
    assert code == 0
    assert out.splitlines()[1:] == [" 9   4650382", "10  34125130"]


def test_dp_cap_exits_three(capsys):
    pair = ("cumulants", "anticommutator", "--a", "poisson:1", "--b", "poisson:1")
    code, _out, err = run_cli(capsys, *pair, "--n", "31")
    assert code == 3
    assert "cap" in err
    code, _out, err = run_cli(capsys, *pair, "--cap", "4", "--n", "3")
    assert code == 3
    assert "cap 4" in err


def test_routes_a_target_does_not_take_exit_two(capsys):
    for target, specs, route in (
        ("product", ("--a", "poisson:1", "--b", "poisson:1"), "graph"),
        ("semicircular-anticom", ("--a", "poisson:1"), "partition"),
        ("semicircular-anticom", ("--a", "poisson:1"), "both"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["cumulants", target, *specs, "--n", "2", "--route", route])
        assert exc.value.code == 2
        capsys.readouterr()


# ------------------------------------------------------------------ series


def test_series_counts(capsys):
    code, out, _err = run_cli(capsys, "series", "counts", "--order", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["even"] == ["0", "1", "5", "26", "155", "987", "6588"]
    assert obj["odd"] == ["0", "1", "2", "9", "48", "287", "1834"]


def test_series_check_passes(capsys):
    code, out, _err = run_cli(capsys, "series", "check", "--order", "10")
    assert code == 0
    obj = json.loads(out)
    assert all(entry["pass"] for entry in obj.values())


def test_series_check_table_has_one_row_per_equation(capsys, monkeypatch):
    code, out, _err = run_cli(capsys, "series", "check", "--order", "4", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["equation", "pass", "first_nonzero_order", "residual"]
    assert lines[1].split() == ["even_from_odd", "yes", "-", "0", "0", "0", "0"]
    assert len(lines) == 5

    def broken(a, b):
        report = check_functional_equations(a, b)
        wrong = TruncatedSeries.from_coefficients([0, 0, Fraction(1, 2)], a.order)
        return FunctionalEquationReport((("even_from_odd", wrong),) + report.residuals[1:])

    monkeypatch.setattr(cli_mod, "check_functional_equations", broken)
    code, out, _err = run_cli(capsys, "series", "check", "--order", "4", "--format", "table")
    assert code == 1
    assert out.splitlines()[1].split() == ["even_from_odd", "no", "2", "0", "0", "1/2", "0", "0"]
    assert not any(c in out for c in "{}'")


def test_series_minverse(capsys):
    code, out, _err = run_cli(capsys, "series", "minverse", "--order", "3")
    assert code == 0
    assert json.loads(out) == ["0", "1/2", "-7/4", "19/4"]


def test_series_minverse_low_orders(capsys):
    for order, want in (("1", ["0", "1/2"]), ("2", ["0", "1/2", "-7/4"])):
        code, out, _err = run_cli(capsys, "series", "minverse", "--order", order)
        assert code == 0
        assert json.loads(out) == want


def test_series_cauchy(capsys):
    code, out, _err = run_cli(capsys, "series", "cauchy", "--moments", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_zero"] is True
    assert set(obj["residual"]) == {"0"}


@pytest.mark.parametrize(
    "kind, option, default",
    [
        ("counts", "--order", "12"),
        ("check", "--order", "12"),
        ("minverse", "--order", "12"),
        ("cauchy", "--moments", "8"),
    ],
)
def test_a_series_option_left_out_takes_its_default(capsys, kind, option, default):
    assert run_cli(capsys, "series", kind) == run_cli(capsys, "series", kind, option, default)


# ------------------------------------------------------------------ verify


def test_verify_all_passes(capsys):
    code, out, _err = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    summary = json.loads(out)
    assert summary["failed"] == 0
    assert summary["failures"] == []
    assert summary["passed"] == 15
    assert {c["name"].split(".")[0] for c in summary["checks"]} == {
        "kreweras",
        "cactus",
        "formulas",
        "series",
    }


def test_verify_single_suite_and_determinism(capsys):
    code, first, _err = run_cli(
        capsys, "verify", "--suite", "formulas", "--seed", "7"
    )
    assert code == 0
    code, second, _err = run_cli(
        capsys, "verify", "--suite", "formulas", "--seed", "7"
    )
    assert code == 0
    assert first == second
    assert json.loads(first)["seed"] == 7


# -------------------------------------------------------------- exit codes


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "y"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(
            ["cumulants", "product", "--a", "poisson:1", "--b", "poisson:1", "--n", "2", "--route", "both"]
        )
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["count", "y", "--m", "8", "--seed", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


# Each kind or target with its required options, and the options of its
# command that it never reads.
UNREAD = [
    (("count", "y", "--m", "5"), ("--n", "--bipartite", "--cap")),
    (("count", "levels", "--m", "5"), ("--n", "--bipartite")),
    (("count", "nc", "--m", "5"), ("--n", "--bipartite", "--cap")),
    (("count", "cacti", "--n", "2"), ("--m",)),
    (("enumerate", "partitions", "--m", "3"), ("--n", "--bipartite")),
    (("enumerate", "y", "--m", "4"), ("--n", "--bipartite")),
    (("enumerate", "cacti", "--n", "2"), ("--m",)),
    (
        ("cumulants", "anticommutator", "--a", "poisson:1", "--b", "poisson:1", "--n", "2"),
        ("--specs", "--weights"),
    ),
    (
        ("cumulants", "product", "--a", "poisson:1", "--b", "poisson:1", "--n", "2"),
        ("--specs", "--weights"),
    ),
    (("cumulants", "semicircular-anticom", "--a", "poisson:1", "--n", "2"), ("--b", "--specs", "--weights")),
    (
        ("cumulants", "quadratic", "--specs", "poisson:1", "--weights", "w.json", "--n", "2"),
        ("--a", "--b"),
    ),
    (("series", "counts"), ("--moments",)),
    (("series", "check"), ("--moments",)),
    (("series", "minverse"), ("--moments",)),
    (("series", "cauchy"), ("--order",)),
]
VALUES = {
    "--m": ("3",),
    "--n": ("2",),
    "--bipartite": (),
    "--cap": ("8",),
    "--a": ("poisson:1",),
    "--b": ("gamma",),
    "--specs": ("semicircular",),
    "--weights": ("w.json",),
    "--order": ("9",),
    "--moments": ("5",),
}


@pytest.mark.parametrize(
    "argv, option",
    [(argv, option) for argv, options in UNREAD for option in options],
    ids=lambda value: " ".join(value[:2]) if isinstance(value, tuple) else value,
)
def test_an_option_the_request_does_not_read_exits_two(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main([*argv, option, *VALUES[option]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{' '.join(argv[:2])} does not take {option}" in err


def test_bad_spec_exits_two(capsys):
    code, _out, err = run_cli(
        capsys,
        "cumulants",
        "anticommutator",
        "--a",
        "gamma:2",
        "--b",
        "poisson:1",
        "--n",
        "2",
    )
    assert code == 2
    assert "unknown distribution spec" in err


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_exact_answers_print_at_any_length(capsys):
    limit = _digit_limit()
    code, out, err = run_cli(capsys, "count", "nc", "--m", "9000")
    assert (code, err) == (0, "")
    assert _digit_limit() == limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert out == f"{catalan(9000)}\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_a_spec_of_any_length_is_read(capsys):
    sevens = "7" * 5000
    argv = ("cumulants", "anticommutator", "--a", f"cumulants:[{sevens}]", "--b", "poisson:1")
    code, out, err = run_cli(capsys, *argv, "--n", "1")
    assert (code, err) == (0, "")
    # kappa_1(ab + ba) = 2 kappa_1(a) kappa_1(b), twice 77..7
    assert json_lines(out) == [{"n": 1, "kappa": "1" + "5" * 4999 + "4"}]


def test_a_non_integer_size_is_refused_by_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "y", "--m", "abc"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "argument --m: expected a positive integer, got abc" in err
    assert "_positive_int" not in err


def test_cap_exits_three(capsys):
    code, _out, err = run_cli(capsys, "enumerate", "partitions", "--m", "20")
    assert code == 3
    assert "cap" in err
    for argv in (("--m", "17"), ("--m", "9", "--cap", "8")):
        code, out, err = run_cli(capsys, "count", "levels", *argv)
        assert code == 3
        assert out == ""
        assert "cap" in err


@pytest.fixture
def started(monkeypatch):
    """Ground sizes of the NC streams started, plain, connected or
    odd-separating, and of the cactus class streams started (2n for n
    edges, counted once the cap has passed, as they walk no partition), in
    order."""
    sizes = []
    plain, connected = _core_py.iter_nc_blocks, _core_py.iter_connected_blocks
    odd_separating = _core_py.iter_y_blocks
    generate = cactus_mod.enumerate_oriented_cacti

    def record_plain(m):
        sizes.append(m)
        return plain(m)

    def record_connected(n):
        sizes.append(2 * n)
        return connected(n)

    def record_odd_separating(m):
        sizes.append(m)
        return odd_separating(m)

    monkeypatch.setattr(_core_py, "iter_nc_blocks", record_plain)
    monkeypatch.setattr(_core_py, "iter_connected_blocks", record_connected)
    def record_classes(n, *args, **kwargs):
        classes = generate(n, *args, **kwargs)
        sizes.append(2 * n)
        return classes

    monkeypatch.setattr(_core_py, "iter_y_blocks", record_odd_separating)
    monkeypatch.setattr(cactus_mod, "enumerate_oriented_cacti", record_classes)
    monkeypatch.setattr(cumulants_mod, "enumerate_oriented_cacti", record_classes)
    return sizes


@pytest.mark.parametrize("route", ["partition", "graph", "both"])
def test_a_refused_paper_route_starts_no_stream(capsys, started, route):
    argv = ("cumulants", "anticommutator", "--route", route, "--a", "poisson:1")
    argv += ("--b", "poisson:1", "--n", "1..4", "--cap")
    code, out, err = run_cli(capsys, *argv, "6")
    assert (code, out, started) == (3, "", [])
    assert "cap 6" in err
    # Under a cap that admits order 4, the recorder sees every stream, the
    # largest first.
    code, out, _err = run_cli(capsys, *argv, "8")
    assert code == 0
    assert [r["n"] for r in json_lines(out)] == [1, 2, 3, 4]
    per_order = [8, 6, 4, 2]
    assert started == (per_order if route != "both" else [8, 8, 6, 6, 4, 4, 2, 2])


def test_main_calls_leak_no_state(capsys, started):
    # One parser serves every main call of the process; an option set by
    # one request must not reach the next.
    assert build_parser() is build_parser()
    argv = ("cumulants", "anticommutator", "--a", "cumulants:[1,1/2,-1]", "--b", "poisson:2")
    argv += ("--n", "1..3")
    code, paper, _err = run_cli(capsys, *argv, "--route", "partition")
    assert (code, started) == (0, [6, 4, 2])
    started.clear()
    code, out, _err = run_cli(capsys, *argv)
    assert (code, started) == (0, [])
    specs = (parse_spec("cumulants:[1,1/2,-1]"), parse_spec("poisson:2"))
    fresh = dp_cumulants(specs, ANTICOMMUTATOR_WEIGHTS, 3)
    assert json_lines(out) == [{"n": n, "kappa": format_rational(k)} for n, k in enumerate(fresh, 1)]
    assert out == paper
    code, out, _err = run_cli(capsys, "count", "y", "--m", "5")
    assert (code, out) == (0, "9\n")
    with pytest.raises(SystemExit) as exc:
        main(["count", "y", "--m", "5", "--cap", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "count y does not take --cap" in err


def test_a_refused_cacti_count_starts_no_stream(capsys, started):
    code, out, err = run_cli(capsys, "count", "cacti", "--n", "9")
    assert (code, out, started) == (3, "", [])
    assert "enumerating NC(18) exceeds the cap 16" in err


def test_asymmetric_weights_exit_two(capsys, tmp_path):
    """Only the cactus routes refuse an asymmetric form; dp computes it."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([["0", "1"], ["2", "0"]]))
    argv = ("cumulants", "quadratic", "--specs", "semicircular", "semicircular")
    argv += ("--weights", str(bad), "--n", "1..2")
    for route in ("partition", "graph", "both"):
        code, out, err = run_cli(capsys, *argv, "--route", route)
        assert (code, out) == (2, "")
        assert "not symmetric at (1,0)" in err
    code, out, _err = run_cli(capsys, *argv)
    assert code == 0
    # Free standard semicirculars: kappa_2(ab + 2ba) = 2 E(abba) + 2 E(baab) = 4.
    assert [r["kappa"] for r in json_lines(out)] == ["0", "4"]


def test_a_form_is_its_weights(capsys, tmp_path):
    weights = tmp_path / "product.json"
    weights.write_text(json.dumps([["0", "1"], ["0", "0"]]))
    pair = ("cumulants:[1/2,-1,2]", "poisson:3/2")
    code, quadratic, _err = run_cli(
        capsys, "cumulants", "quadratic", "--specs", *pair, "--weights", str(weights), "--n", "1..6"
    )
    assert code == 0
    code, product, _err = run_cli(
        capsys, "cumulants", "product", "--a", pair[0], "--b", pair[1], "--n", "1..6"
    )
    assert code == 0
    assert quadratic == product


def test_missing_weights_file_exits_two(capsys, tmp_path):
    code, _out, err = run_cli(
        capsys,
        "cumulants",
        "quadratic",
        "--specs",
        "semicircular",
        "--weights",
        str(tmp_path / "nope.json"),
        "--n",
        "1",
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "text, message",
    [("", "Expecting value"), ('{"w": [["1"]]}', "weight matrix JSON must be an array of arrays")],
    ids=["empty", "object"],
)
def test_a_malformed_weights_file_is_named(capsys, tmp_path, text, message):
    path = tmp_path / "weights.json"
    path.write_text(text)
    argv = ("cumulants", "quadratic", "--specs", "semicircular", "--weights", str(path))
    code, out, err = run_cli(capsys, *argv, "--n", "1")
    assert (code, out) == (2, "")
    assert f"error: weights file {path}: {message}" in err


# ------------------------------------------------------------- entry point


def test_a_closed_stdout_exits_141_in_silence():
    # As in `enumerate partitions --m 12 | head -2`: the reader leaves after
    # two lines, which is a closed pipe, not a usage error.
    env = dict(os.environ, PYTHONPATH=str(Path(freecactus.__file__).parents[1]))
    argv = ["enumerate", "partitions", "--m", "12", "--format", "table"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "freecactus.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.communicate(timeout=60)[1]
    assert proc.returncode == 141
    assert lines == [b"1|2|3|4|5|6|7|8|9|10|11|12\n", b"1|2|3|4|5|6|7|8|9|10|11 12\n"]
    assert err == b""


SET_UP = """
import sys
sys.path.insert(0, sys.argv[1])
import freecactus.cli
freecactus.cli.build_parser()
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_set_up_loads_neither_dataclasses_nor_inspect():
    # Every invocation pays for what importing the CLI loads, before its
    # request runs; -S keeps site .pth files out of the module list.
    src = str(Path(freecactus.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SET_UP, src], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_installed_entry_point_runs():
    exe = shutil.which("freecactus")
    assert exe is not None, "console script not installed"
    proc = subprocess.run(
        [exe, "count", "y", "--m", "8"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "155"
