"""The benchmark's workloads: seeded inputs, request lists and answer checks.

A workload is a fixed list of CLI requests.  Seeded inputs (explicit
cumulant specs, Poisson rates, weight matrices, verify seeds) come from the
benchmark's own RNG; the program only ever sees the generated spec strings
and weight files.  Every drawn rational is nonzero and explicit specs are
permutations of one fixed multiset with random signs, so the amount of work
does not depend on the seed.

Each request carries a check that compares its stdout with a reference that
does not come from the route being timed: the word-expansion oracle, the
counting recursion, Narayana polynomials, the kernel's pruned level scan,
the program's own pass/all_zero flags, or answers committed in
``expected.json``.  A check returns None when the answer is right and a
short message otherwise.  References are computed lazily, once per run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from freecactus.cumulants import (
    WeightMatrix,
    oracle_anticommutator_cumulants,
    oracle_quadratic_cumulants,
    parse_spec,
)
from freecactus.partitions import level_counts
from freecactus.series import free_poisson_pair_cumulants, y_count_recursive

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Magnitudes of explicit cumulant values and of Poisson rates and weights.
# Specs draw a permutation of a prefix of SPEC_POOL, so the operand sizes,
# and with them the cost of the exact arithmetic, are the same for every seed.
SPEC_POOL = tuple(
    Fraction(x)
    for x in ("1", "2", "3", "1/2", "3/2", "1/3", "2/3", "4/3", "5/2", "5/3", "3/4", "5/4")
)
RATE_POOL = tuple(Fraction(x) for x in ("1/2", "2/3", "3/4", "4/3", "3/2", "5/3", "2", "5/2"))
WEIGHT_POOL = tuple(Fraction(x) for x in ("1", "2", "1/2", "3/2", "2/3", "3"))

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Check


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ------------------------------------------------------------ seeded inputs


def explicit_values(rng: random.Random, length: int) -> list[Fraction]:
    values = list(SPEC_POOL[:length])
    rng.shuffle(values)
    return [v if rng.random() < 0.5 else -v for v in values]


def spec_text(values) -> str:
    return "cumulants:[" + ",".join(str(v) for v in values) + "]"


def weight_rows(rng: random.Random, k: int) -> list[list[Fraction]]:
    """A symmetric k x k matrix with nonzero entries of fixed magnitudes."""
    magnitudes = list(WEIGHT_POOL)
    rng.shuffle(magnitudes)
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            w = magnitudes.pop()
            rows[i][j] = rows[j][i] = w if rng.random() < 0.5 else -w
    return rows


def write_weights(path: Path, rows) -> None:
    path.write_text(json.dumps([[str(w) for w in row] for row in rows]), encoding="utf-8")


# ------------------------------------------------------------------ checks


def _records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def expect_kappas(orders, reference: Callable[[], list[Fraction]]) -> Check:
    """Records {"n", "kappa"} for each order, equal to reference()[n - 1]."""
    reference = functools.cache(reference)

    def check(stdout):
        got = [(r["n"], r["kappa"]) for r in _records(stdout)]
        want = [(n, str(reference()[n - 1])) for n in orders]
        if got != want:
            return f"cumulants differ from the reference: got {got}, want {want}"
        return None

    return check


def expect_text(want: str) -> Check:
    def check(stdout):
        if stdout != want:
            return f"output differs from the committed answer: got {stdout[:80]!r}"
        return None

    return check


def expect_digest(want: str) -> Check:
    def check(stdout):
        got = hashlib.sha256(stdout.encode()).hexdigest()
        return None if got == want else f"output digest {got} is not the committed {want}"

    return check


def all_of(*checks: Check) -> Check:
    def check(stdout):
        for one in checks:
            problem = one(stdout)
            if problem:
                return problem
        return None

    return check


def narayana_product(rate_a: Fraction, rate_b: Fraction) -> Callable[[], list[Fraction]]:
    """kappa_n(ab) for free Poissons: sum_k N(n, k) rate_a^k rate_b^(n+1-k)."""

    def reference(n_max=12):
        return [
            sum(
                Fraction(math.comb(n, k) * math.comb(n, k - 1), n)
                * rate_a**k
                * rate_b ** (n + 1 - k)
                for k in range(1, n + 1)
            )
            for n in range(1, n_max + 1)
        ]

    return reference


def anticom_oracle(a: str, b: str, n_max: int) -> Callable[[], list[Fraction]]:
    return lambda: oracle_anticommutator_cumulants(
        parse_spec(a), parse_spec(b), n_max, cap=n_max
    )


def expect_series_pass(stdout: str) -> str | None:
    """`series check`: every functional equation passes with a zero residual."""
    report = json.loads(stdout)
    bad = [
        name
        for name, entry in report.items()
        if entry["pass"] is not True or any(c != "0" for c in entry["residual"])
    ]
    return f"functional equations fail: {bad}" if bad or not report else None


def expect_cauchy_zero(stdout: str) -> str | None:
    """`series cauchy`: the all_zero flag is set and every residual is 0."""
    obj = json.loads(stdout)
    if obj["all_zero"] is not True or any(c != "0" for c in obj["residual"]):
        return "Cauchy polynomial residual is not zero"
    return None


def expect_counts_match_scan(max_m: int) -> Check:
    """`series counts`: the low coefficients equal the pruned level scan."""

    def check(stdout):
        obj = json.loads(stdout)
        for m in range(1, max_m + 1):
            got = obj["even"][m // 2] if m % 2 == 0 else obj["odd"][(m + 1) // 2]
            if int(got) != sum(level_counts(m)):
                return f"series count at m = {m} is {got}, the level scan gives {sum(level_counts(m))}"
        return None

    return check


def expect_levels_sum(m: int) -> Check:
    def check(stdout):
        levels = json.loads(stdout)
        if sum(levels) != y_count_recursive(m):
            return f"level counts sum to {sum(levels)}, the recursion gives {y_count_recursive(m)}"
        return None

    return check


def expect_verify_pass(n_checks: int) -> Check:
    def check(stdout):
        obj = json.loads(stdout)
        failed = [c["name"] for c in obj["checks"] if c["pass"] is not True]
        if obj["failed"] != 0 or failed or len(obj["checks"]) != n_checks:
            return f"verify reports failures {failed} over {len(obj['checks'])} checks"
        return None

    return check


# --------------------------------------------------------------- workloads


def anticom_sweep(rng: random.Random, workdir: Path, expected: dict) -> list[Request]:
    x1, x2, x3 = (spec_text(explicit_values(rng, 12)) for _ in range(3))
    r1, r2, r3 = rng.sample(RATE_POOL, 3)
    p1, p2, p3 = (f"poisson:{r}" for r in (r1, r2, r3))
    anticom = ("cumulants", "anticommutator")
    product = ("cumulants", "product")
    return [
        Request(
            anticom + ("--a", "poisson:1", "--b", "poisson:1", "--n", "1..6"),
            expect_kappas(range(1, 7), lambda: free_poisson_pair_cumulants(6)),
        ),
        Request(
            anticom + ("--a", x1, "--b", x2, "--n", "1..6"),
            expect_kappas(range(1, 7), anticom_oracle(x1, x2, 6)),
        ),
        Request(
            anticom + ("--a", p1, "--b", p2, "--n", "1..5"),
            expect_kappas(range(1, 6), anticom_oracle(p1, p2, 5)),
        ),
        Request(
            anticom + ("--a", x3, "--b", "semicircular", "--n", "1..5"),
            expect_kappas(range(1, 6), anticom_oracle(x3, "semicircular", 5)),
        ),
        Request(
            product + ("--a", "poisson:1", "--b", "poisson:1", "--n", "1..9"),
            expect_kappas(range(1, 10), narayana_product(Fraction(1), Fraction(1))),
        ),
        Request(
            product + ("--a", p3, "--b", p1, "--n", "1..9"),
            expect_kappas(range(1, 10), narayana_product(r3, r1)),
        ),
    ]


def cactus_classes(rng: random.Random, workdir: Path, expected: dict) -> list[Request]:
    x1, x2 = (spec_text(explicit_values(rng, 12)) for _ in range(2))
    specs2 = [spec_text(explicit_values(rng, 8)) for _ in range(2)]
    specs3 = [spec_text(explicit_values(rng, 8)) for _ in range(3)]
    w2, w3 = weight_rows(rng, 2), weight_rows(rng, 3)
    w2_path, w3_path = workdir / "weights2.json", workdir / "weights3.json"
    write_weights(w2_path, w2)
    write_weights(w3_path, w3)

    def quadratic_oracle(texts, rows, n_max):
        specs = tuple(parse_spec(t) for t in texts)
        weights = WeightMatrix(tuple(tuple(r) for r in rows))
        return lambda: oracle_quadratic_cumulants(specs, weights, n_max, cap=n_max)

    quadratic = ("cumulants", "quadratic", "--route", "graph", "--specs")
    return [
        Request(
            ("cumulants", "semicircular-anticom", "--a", "poisson:1", "--n", "1..12"),
            expect_text(expected["semicircular-anticom poisson:1 1..12"]),
        ),
        Request(
            ("cumulants", "anticommutator", "--route", "graph", "--a", x1, "--b", x2, "--n", "1..5"),
            expect_kappas(range(1, 6), anticom_oracle(x1, x2, 5)),
        ),
        Request(
            quadratic + tuple(specs2) + ("--weights", str(w2_path), "--n", "1..4"),
            expect_kappas(range(1, 5), quadratic_oracle(specs2, w2, 4)),
        ),
        Request(
            quadratic + tuple(specs3) + ("--weights", str(w3_path), "--n", "1..4"),
            expect_kappas(range(1, 5), quadratic_oracle(specs3, w3, 4)),
        ),
        Request(
            ("count", "cacti", "--n", "5", "--bipartite"),
            expect_text(expected["count cacti --n 5 --bipartite"]),
        ),
    ]


def series_recursion(rng: random.Random, workdir: Path, expected: dict) -> list[Request]:
    return [
        Request(("count", "y", "--m", "400"), expect_text(expected["count y --m 400"])),
        Request(("series", "cauchy", "--moments", "45"), expect_cauchy_zero),
        Request(("series", "check", "--order", "80"), expect_series_pass),
        Request(
            ("series", "minverse", "--order", "120"),
            expect_digest(expected["series minverse --order 120 sha256"]),
        ),
        Request(
            ("series", "counts", "--order", "200"),
            all_of(
                expect_counts_match_scan(14),
                expect_digest(expected["series counts --order 200 sha256"]),
            ),
        ),
        Request(
            ("count", "levels", "--m", "16"),
            all_of(expect_levels_sum(16), expect_text(expected["count levels --m 16"])),
        ),
    ]


def verify_suites(rng: random.Random, workdir: Path, expected: dict) -> list[Request]:
    # One request per suite; only the formulas suite draws from the seed.
    seed = str(rng.randrange(1, 2**31))
    return [
        Request(("verify", "--suite", suite, "--seed", seed), expect_verify_pass(checks))
        for suite, checks in (("kreweras", 3), ("cactus", 4), ("formulas", 4), ("series", 4))
    ]


WORKLOADS = {
    "anticom-sweep": anticom_sweep,
    "cactus-classes": cactus_classes,
    "series-recursion": series_recursion,
    "verify-suites": verify_suites,
}


def build(name: str, seed: int, workdir: Path, expected: dict | None = None) -> list[Request]:
    """The request list of one workload; weight files go into workdir."""
    rng = random.Random(f"{name}/{seed}")
    return WORKLOADS[name](rng, workdir, load_expected() if expected is None else expected)
