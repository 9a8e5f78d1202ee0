"""Tests for the self-verification suites: the pinned check list and
failures that must survive ``python -O``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freecactus
from freecactus import cactus as cactus_mod
from freecactus import verify
from freecactus.cli import main
from freecactus.verify import SUITES, run_suite

PINNED = {
    "kreweras": [
        "kreweras.roundtrip_and_size",
        "kreweras.parity_swap",
        "kreweras.complement_of_family",
    ],
    "cactus": [
        "cactus.connectivity_is_join",
        "cactus.connected_validates",
        "cactus.euler_relation",
        "cactus.class_sizes",
    ],
    "formulas": [
        "formulas.routes_agree",
        "formulas.quadratic_routes_agree",
        "formulas.special_cases",
        "formulas.rate_polynomial",
    ],
    "series": [
        "series.functional_equations",
        "series.closed_form_inverse",
        "series.transfer_identity",
        "series.cauchy_polynomial",
    ],
}


def test_suites_run_in_pinned_order():
    # "all" runs the suites in table order.
    assert list(SUITES) == list(PINNED)


@pytest.mark.parametrize("suite", list(PINNED))
def test_check_names_and_order_are_pinned(suite):
    summary = run_suite(suite)
    assert [c["name"] for c in summary["checks"]] == PINNED[suite]
    assert summary["failed"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--cap", "10"],
        ["verify", "--oracle-cap", "2"],
        ["series", "counts", "--cap", "3"],
    ],
)
def test_verify_and_series_take_no_cap(capsys, argv):
    # The checks and the series have fixed or polynomial sizes; no cap applies.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()


def test_transfer_identity_catches_a_wrong_dp_cumulant(monkeypatch):
    # R comes from the counting recursion and M from the dp, so one wrong
    # dp cumulant breaks the identity.
    dp_pair = verify._poisson_pair

    def off_by_one(n_max):
        kappas = dp_pair(n_max)
        kappas[5] += 1
        return kappas

    monkeypatch.setattr(verify, "_poisson_pair", off_by_one)
    summary = run_suite("series")
    assert [c["name"] for c in summary["checks"]] == PINNED["series"]
    assert "series.transfer_identity" in summary["failures"]


def test_rate_polynomial_catches_a_wrong_closed_level_sum(monkeypatch):
    # The closed level sums are held to the level scan behind the polynomial.
    closed = verify.y_level_counts

    def top_level_off(m):
        levels = closed(m)
        levels[-1] += 1
        return levels

    monkeypatch.setattr(verify, "y_level_counts", top_level_off)
    summary = run_suite("formulas")
    assert [c["name"] for c in summary["checks"]] == PINNED["formulas"]
    assert summary["failures"] == ["formulas.rate_polynomial"]


def test_rate_polynomial_catches_a_wrong_odd_level_sum(monkeypatch):
    # Odd ground sets carry no rate polynomial; only the level scan holds them.
    closed = verify.y_level_counts

    def odd_top_level_off(m):
        levels = closed(m)
        if m % 2:
            levels[-1] += 1
        return levels

    monkeypatch.setattr(verify, "y_level_counts", odd_top_level_off)
    summary = run_suite("formulas")
    assert [c["name"] for c in summary["checks"]] == PINNED["formulas"]
    assert summary["failures"] == ["formulas.rate_polynomial"]


def test_a_check_that_raises_fails_alone(monkeypatch, capsys):
    # Any exception is that check's failure, with its type in the detail;
    # the other checks still run and the request prints its summary.
    def no_level_sums(m):
        raise ValueError("no level sums")

    monkeypatch.setattr(verify, "y_level_counts", no_level_sums)
    summary = run_suite("formulas")
    assert [c["name"] for c in summary["checks"]] == PINNED["formulas"]
    assert summary["failures"] == ["formulas.rate_polynomial"]
    (check,) = [c for c in summary["checks"] if not c["pass"]]
    assert check["detail"] == "ValueError: no level sums"
    assert main(["verify", "--suite", "all"]) == 1
    printed = json.loads(capsys.readouterr().out)
    assert (printed["passed"], printed["failed"]) == (14, 1)
    assert printed["failures"] == ["formulas.rate_polynomial"]


def test_class_sizes_catches_a_class_yielded_twice(monkeypatch):
    # A duplicate would collapse into one key of the signature table.
    generate = cactus_mod.enumerate_oriented_cacti

    def loops_twice(n, bipartite_only=False, cap=None):
        loops = cactus_mod.OrientedCactus(tuple((0, e) for e in range(n)))
        for c in generate(n, bipartite_only=bipartite_only, cap=cap):
            yield c
            if c == loops:
                yield c

    monkeypatch.setattr(cactus_mod, "enumerate_oriented_cacti", loops_twice)
    summary = run_suite("cactus")
    assert [c["name"] for c in summary["checks"]] == PINNED["cactus"]
    assert summary["failures"] == ["cactus.class_sizes"]


def test_a_wrong_cycle_count_fails_only_the_euler_relation(monkeypatch):
    # The three graph checks read one table; each reads its own column.
    validate = cactus_mod.validate_cactus

    def one_cycle_more(g):
        v = validate(g)
        return v._replace(simple_cycle_count=v.simple_cycle_count + 1)

    monkeypatch.setattr(cactus_mod, "validate_cactus", one_cycle_more)
    summary = run_suite("cactus")
    assert [c["name"] for c in summary["checks"]] == PINNED["cactus"]
    assert summary["failures"] == ["cactus.euler_relation"]


def test_complement_of_family_reads_the_bipartition(monkeypatch):
    # X = K(Y) is held to the block-graph test, so a graph side that calls
    # every graph odd fails that check and no other.
    monkeypatch.setattr(cactus_mod, "bipartition", lambda g: None)
    summary = run_suite("kreweras")
    assert [c["name"] for c in summary["checks"]] == PINNED["kreweras"]
    assert summary["failures"] == ["kreweras.complement_of_family"]


def test_no_block_graph_table_outlives_a_run(monkeypatch):
    assert run_suite("cactus")["failed"] == 0
    connected = cactus_mod.is_connected
    monkeypatch.setattr(cactus_mod, "is_connected", lambda g: not connected(g))
    assert run_suite("cactus")["failed"] > 0


FAILING_UNDER_O = """
import sys
if __debug__:
    sys.exit(5)
from freecactus import cli, verify
verify.cauchy_polynomial_residual = lambda n, moments=None: [1] + [0] * n
sys.exit(cli.main(["verify", "--suite", "series"]))
"""


def test_failing_check_fails_under_python_O():
    src = str(Path(freecactus.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAILING_UNDER_O],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1, proc.stderr
    summary = json.loads(proc.stdout)
    assert summary["failures"] == ["series.cauchy_polynomial"]
    (check,) = [c for c in summary["checks"] if c["name"] == "series.cauchy_polynomial"]
    assert check["pass"] is False
