"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

They pin the exact counts of the traced run, the seeded inputs, the answer
checks and the refusal to run without the program's source.  The traced
passes run in fresh interpreters and take about a minute.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import import_freecactus  # noqa: E402

import_freecactus(ROOT)

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from freecactus import cli  # noqa: E402
from freecactus.cumulants import CumulantSpec, oracle_anticommutator_cumulants  # noqa: E402
from freecactus.partitions import catalan  # noqa: E402
from freecactus.series import free_poisson_pair_cumulants, r_m_transfer  # noqa: E402

ANCHOR_REQUESTS = [
    ["cumulants", "anticommutator", "--a", "poisson:1", "--b", "poisson:1", "--n", "6"],
    ["count", "cacti", "--n", "6"],
    ["count", "cacti", "--n", "6", "--bipartite"],
]


def run_worker(argvs, trace, workdir, index):
    return run.run_pass(argvs, trace, workdir, index, time.monotonic() + 600)


@pytest.fixture(scope="module")
def anchor_passes(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("anchors")
    return [run_worker(ANCHOR_REQUESTS, True, workdir, i) for i in range(2)]


def test_traced_counts_match_the_anchors(anchor_passes):
    report = anchor_passes[0]["trace"]
    anticom = spans.totals(report, request=0)
    assert anticom["core_py.iter_nc_blocks"]["items"] == catalan(12) == 208_012
    assert anticom["partitions.enumerate_y"]["items"] == 6_588
    streamed = [
        e["items"]
        for e in report["edges"]
        if e["request"] == 0 and (e["parent"], e["name"]) == ("partitions.enumerate_y", "partitions.enumerate_nc")
    ]
    assert streamed == [208_012]
    assert spans.totals(report, request=1)["cactus.enumerate_oriented_cacti"]["value"] == 3_876
    assert spans.totals(report, request=2)["cactus.enumerate_oriented_cacti"]["value"] == 466
    assert [r["stdout"] for r in anchor_passes[0]["requests"][1:]] == ["3876\n", "466\n"]


def test_traced_counts_repeat_exactly(anchor_passes):
    def counts(report):
        stats = {(r["request"], r["name"]): (r["calls"], r["items"], r["value"]) for r in report["stats"]}
        edges = {(e["request"], e["parent"], e["name"]): (e["spans"], e["items"]) for e in report["edges"]}
        return stats, edges

    first, second = (counts(p["trace"]) for p in anchor_passes)
    assert first == second


def test_every_layer_metric_is_reported(anchor_passes):
    traced = anchor_passes[0]
    outputs = [(argv, r["stdout"]) for argv, r in zip(ANCHOR_REQUESTS, traced["requests"])]
    metrics = spans.layer_metrics(traced["trace"], traced["notes"], outputs)
    assert traced["notes"] == []
    assert set(metrics) == {name for name, _unit in spans.PER_LAYER} - {"trace.overhead_ratio"}
    assert all(m["value"] is not None for m in metrics.values())
    assert metrics["partitions.enumerate_y.keep_ratio"]["value"] == 6_588 / 208_012


def test_missing_function_gives_null_metrics_and_a_note():
    notes = spans.install(spans.Tracer(), targets=(("core_py.gone", "freecactus._core_py", "gone"),))
    assert notes == ["core_py.gone: freecactus._core_py.gone not found; its metrics are null"]
    report = {"stats": [], "edges": [], "profiles_cache": None}
    metrics = spans.layer_metrics(report, ["core_py.iter_nc_blocks: not found"], [])
    assert metrics["core_py.iter_nc_blocks.items"]["value"] is None
    assert metrics["cumulants.profiles_cache.hit_ratio"]["value"] is None
    assert metrics["partitions.kreweras.calls"]["value"] == 0


def test_corrupted_expected_answer_counts_as_failure(tmp_path):
    expected = workloads.load_expected()
    expected["count levels --m 16"] = "[183040, 115249, 22284, 1372, 15]\n"

    def levels_request(answers):
        built = workloads.build("series-recursion", 1, tmp_path, answers)
        return [r for r in built if r.argv[:2] == ("count", "levels")]

    corrupted, genuine = levels_request(expected), levels_request(None)
    result = run_worker([list(corrupted[0].argv)], False, tmp_path, 0)
    assert run.score(genuine, [result]) == (1, [])
    attempted, failures = run.score(corrupted, [result])
    assert attempted == 1 and len(failures) == 1
    metrics = run.end_to_end([[0.1, 0.1]], [result], attempted, len(failures))
    assert metrics["ok_share"]["value"] == 0.0


def test_seeded_inputs_repeat_and_keep_the_work_fixed(tmp_path):
    def inputs(seed):
        workdir = tmp_path / str(seed)
        workdir.mkdir(exist_ok=True)
        argvs = [r.argv for r in workloads.build("cactus-classes", seed, workdir)]
        weights = sorted(p.read_text() for p in workdir.iterdir())
        return argvs, weights

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)
    for seed in (3, 4):
        argvs, weights = inputs(seed + 10)
        specs = [a for argv in argvs for a in argv if a.startswith("cumulants:")]
        for text in specs:
            values = [Fraction(v) for v in text[len("cumulants:[") : -1].split(",")]
            assert sorted(abs(v) for v in values) == sorted(workloads.SPEC_POOL[: len(values)])
        assert all(Fraction(w) != 0 for text in weights for row in json.loads(text) for w in row)


def cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def test_committed_answers_agree_with_independent_references():
    expected = workloads.load_expected()
    committed = [
        json.loads(line)["kappa"]
        for line in expected["semicircular-anticom poisson:1 1..12"].splitlines()
    ]
    oracle = oracle_anticommutator_cumulants(
        CumulantSpec.free_poisson(1), CumulantSpec.semicircular(), 6, cap=6
    )
    assert committed[:6] == [str(v) for v in oracle]

    minverse = cli_stdout("series", "minverse", "--order", "120")
    assert hashlib.sha256(minverse.encode()).hexdigest() == expected["series minverse --order 120 sha256"]
    inverse = r_m_transfer(free_poisson_pair_cumulants(10), 10).M.comp_inverse()
    assert json.loads(minverse)[:11] == [str(c) for c in inverse.coeffs]


def test_probe_normalizes_to_the_reference_speed():
    probe = speed.Probe()
    probe.samples = [(t * 0.01, 2 * speed.REFERENCE_S) for t in range(10)]
    probe_time = 10 * 2 * speed.REFERENCE_S
    assert probe.normalize(0.0, 0.1) == pytest.approx((0.1 - probe_time) / 2)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "anticom-sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
