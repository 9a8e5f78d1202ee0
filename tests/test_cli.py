"""End-to-end tests of the command line: output schemas, frozen values,
route agreement flags, exit codes, and determinism under a fixed seed.

Everything runs in-process through main() so coverage tools see it; one
subprocess test at the bottom proves the installed entry point works."""

import hashlib
import json
import shutil
import subprocess

import pytest

from freecactus import _core_py
from freecactus.cli import main, parse_range


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
    with pytest.raises(ValueError):
        parse_range("5..1")
    with pytest.raises(ValueError):
        parse_range("0..2")


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


def test_cap_exits_three(capsys):
    code, _out, err = run_cli(capsys, "enumerate", "partitions", "--m", "20")
    assert code == 3
    assert "cap" in err
    for argv in (("--m", "17"), ("--m", "9", "--cap", "8")):
        code, out, err = run_cli(capsys, "count", "levels", *argv)
        assert code == 3
        assert out == ""
        assert "cap" in err


@pytest.mark.parametrize("route", ["partition", "graph", "both"])
def test_a_refused_paper_route_starts_no_stream(capsys, monkeypatch, route):
    started = []
    stream = _core_py.iter_nc_blocks

    def recording(m):
        started.append(m)
        return stream(m)

    monkeypatch.setattr(_core_py, "iter_nc_blocks", recording)
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


def test_asymmetric_weights_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([["0", "1"], ["2", "0"]]))
    code, _out, err = run_cli(
        capsys,
        "cumulants",
        "quadratic",
        "--specs",
        "semicircular",
        "semicircular",
        "--weights",
        str(bad),
        "--n",
        "1",
    )
    assert code == 2
    assert "not symmetric" in err


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


# ------------------------------------------------------------- entry point


def test_installed_entry_point_runs():
    exe = shutil.which("freecactus")
    assert exe is not None, "console script not installed"
    proc = subprocess.run(
        [exe, "count", "y", "--m", "8"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "155"
