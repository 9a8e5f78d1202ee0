"""Self-verification suites behind ``freecactus verify``.

``SUITES`` maps each suite to its checks in run order; a check is named
suite.function.  A check takes the run, a seeded ``random.Random`` that
also holds the block-graph table of the cactus suite, and returns what it
covered, or fails through ``require``, which ``python -O`` does not strip
as it does ``assert``.  Only the formulas suite draws from the generator.
The table builds each NC(2n) block graph, n <= 4, once per run, on first
use; it dies with the run, so a reference patched between two runs is
seen by the second.  Every check has fixed sizes inside the default caps.
The interval DP is the reference for every paper formula and series
identity; the two routes_agree checks tie the DP itself to the partition
route, the graph route and the word-expansion oracle, and the series
checks tie it to the counting recursion.  Each series check runs a DP of
its own.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from functools import cached_property

from freecactus import cactus as cactus_mod
from freecactus.cumulants import (
    ANTICOMMUTATOR_WEIGHTS,
    CumulantSpec,
    WeightMatrix,
    anticommutator_cumulant,
    anticommutator_cumulant_graphwise,
    even_anticommutator,
    moments_from_cumulants,
    oracle_anticommutator_cumulants,
    oracle_quadratic_cumulants,
    quadratic_form_cumulant,
    random_explicit_spec,
    semicircular_anticommutator,
)
from freecactus.dp import dp_cumulants
from freecactus.partitions import (
    Partition,
    catalan,
    classify,
    enumerate_connected,
    enumerate_nc,
    enumerate_y,
    interval_pairing,
    join,
    kreweras,
    level_counts,
)
from freecactus.series import (
    TruncatedSeries,
    cauchy_polynomial_residual,
    check_functional_equations,
    free_poisson_pair_cumulants,
    minverse_closed_form,
    r_m_transfer,
    y_level_counts,
    y_series,
)


class _Run(random.Random):
    """One run of the checks: the seeded generator, and the block-graph
    table the cactus checks share, built on first use."""

    @cached_property
    def block_graphs(self) -> dict[int, list[tuple]]:
        """n -> (p, connected, validation or None) for each p of NC(2n),
        n <= 4: one ``build_graph`` per partition, validated if connected."""
        table = {}
        for n in range(1, 5):
            rows = table[n] = []
            for p in enumerate_nc(2 * n):
                g = cactus_mod.build_graph(p)
                connected = cactus_mod.is_connected(g)
                rows.append((p, connected, cactus_mod.validate_cactus(g) if connected else None))
        return table


def require(condition, detail) -> None:
    """Fail the running check with ``detail`` unless ``condition`` holds."""
    if not condition:
        raise AssertionError(detail)


def roundtrip_and_size(rng: random.Random) -> str:
    for m in range(1, 7):
        for p in enumerate_nc(m):
            k = kreweras(p)
            require(kreweras(k, direction="inverse") == p, p)
            require(len(k) == m + 1 - len(p), p)
    return "m <= 6 exhaustive"


def parity_swap(rng: random.Random) -> str:
    for n in (1, 2):
        for p in enumerate_nc(2 * n):
            require(classify(p).even == classify(kreweras(p)).parity_preserving, p)
    return "even ground sets 2 and 4"


def _connected_bipartite(p: Partition) -> bool:
    g = cactus_mod.build_graph(p)
    return cactus_mod.is_connected(g) and cactus_mod.bipartition(g) is not None


def complement_of_family(rng: random.Random) -> str:
    # X = K(Y): the complements of the odd-separating family are the
    # partitions whose block graph is connected and bipartite.
    for n in range(1, 5):
        from_y = {kreweras(q) for q in enumerate_y(2 * n)}
        direct = set(filter(_connected_bipartite, enumerate_nc(2 * n)))
        require(from_y == direct, f"2n = {2 * n}")
    return "complement image matches the graph test, n <= 4"


def connectivity_is_join(run: _Run) -> str:
    for n, rows in run.block_graphs.items():
        pairing = interval_pairing(n)
        for p, connected, _ in rows:
            require(connected == (len(join(p, pairing)) == 1), p)
    return "n <= 4"


def connected_validates(run: _Run) -> str:
    for rows in run.block_graphs.values():
        for p, connected, validation in rows:
            if connected:
                require(validation.is_cactus, p)
    return "every connected block graph is a cactus, n <= 4"


def euler_relation(run: _Run) -> str:
    for n, rows in run.block_graphs.items():
        for p, connected, validation in rows:
            if not connected:
                continue
            count = validation.simple_cycle_count
            require(count == len(kreweras(p, "inverse")) - n, p)
    return "simple cycles = inverse complement blocks - n, n <= 4"


def _class_table(n: int, bipartite_only: bool) -> dict:
    """Signature -> class over one pass of the stream; a repeat fails."""
    table = {}
    for c in cactus_mod.enumerate_oriented_cacti(n, bipartite_only=bipartite_only):
        require(c.signature not in table, f"class yielded twice at n = {n}: {c.signature}")
        table[c.signature] = c
    return table


def class_sizes(run: _Run) -> str:
    for n, rows in run.block_graphs.items():
        classes = _class_table(n, bipartite_only=False)
        sizes = Counter(
            cactus_mod.canonical_outercycle(p).signature for p in enumerate_connected(n)
        )
        require(sizes.keys() == classes.keys(), f"class signatures at n = {n}")
        walked = {s for s in sizes if cactus_mod.OrientedCactus(s).bipartition is not None}
        bipartite = _class_table(n, bipartite_only=True)
        require(bipartite.keys() == walked, f"bipartite class signatures at n = {n}")
        for signature, rep in classes.items():
            require(sizes[signature] == 2**rep.f_c, signature)
        require(sizes.total() == sum(connected for _, connected, _ in rows), f"n = {n}")
        trees = sum(1 for rep in classes.values() if not any(rep.edge_rigidity))
        require(trees == catalan(n), f"tree classes at n = {n}")
    return "sizes 2^fC, union complete, bipartite classes, trees Catalan, n <= 4"


def routes_agree(rng: random.Random) -> str:
    for _ in range(5):
        a = random_explicit_spec(rng, 4)
        b = random_explicit_spec(rng, 4)
        from_oracle = oracle_anticommutator_cumulants(a, b, 3)
        from_dp = dp_cumulants((a, b), ANTICOMMUTATOR_WEIGHTS, 3)
        for n in (1, 2, 3):
            direct = anticommutator_cumulant(a, b, n)
            graph = anticommutator_cumulant_graphwise(a, b, n)
            agree = from_dp[n - 1] == direct == graph == from_oracle[n - 1]
            require(agree, (a.name, b.name, n))
    return "5 random pairs, n <= 3, dp, partition, graph and oracle"


def quadratic_routes_agree(rng: random.Random) -> str:
    for k in (2, 3):
        specs = tuple(random_explicit_spec(rng, 4) for _ in range(k))
        rows = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                w = Fraction(rng.randint(-2, 2), rng.choice((1, 2)))
                rows[i][j] = rows[j][i] = w
        weights = WeightMatrix(tuple(tuple(r) for r in rows))
        from_oracle = oracle_quadratic_cumulants(specs, weights, 3)
        from_dp = dp_cumulants(specs, weights, 3)
        for n in (1, 2, 3):
            p = quadratic_form_cumulant(specs, weights, n, route="partition")
            g = quadratic_form_cumulant(specs, weights, n, route="graph")
            require(from_dp[n - 1] == p == g == from_oracle[n - 1], (k, n))
    return "k = 2 and 3, n <= 3, dp, both paper routes and oracle"


def special_cases(rng: random.Random) -> str:
    # The even pair takes kappa_2, kappa_4, .. from a random spec; odd orders are 0.
    drawn = random_explicit_spec(rng, 4).values
    even = CumulantSpec.explicit([v for x in drawn for v in (0, x)])
    partner = CumulantSpec.explicit([rng.randint(-3, 3) if i % 2 else 0 for i in range(8)])
    from_dp = dp_cumulants((even, partner), ANTICOMMUTATOR_WEIGHTS, 6)
    for m in range(1, 7):
        require(even_anticommutator(even, partner, m) == from_dp[m - 1], ("even", m))
    pair = (random_explicit_spec(rng, 5), CumulantSpec.semicircular())
    from_dp = dp_cumulants(pair, ANTICOMMUTATOR_WEIGHTS, 6)
    for m in range(1, 7):
        kappa = semicircular_anticommutator(pair[0], m)
        require(kappa == from_dp[m - 1], ("semicircular", m))
    return "even formula and semicircular formula vs dp, m <= 6"


def rate_polynomial(rng: random.Random) -> str:
    scans = {m: level_counts(m) for m in range(1, 9)}
    for m, counts in scans.items():
        require(y_level_counts(m) == counts, ("level sums", m))
    # kappa_n(ab + ba) at rate lam is the sum of d_r lam^(n+1-r), d_r twice level r of Y_2n.
    levels = [[2 * c for c in scans[2 * n]] for n in range(1, 5)]
    for lam in (Fraction(1), Fraction(2), Fraction(5, 2)):
        spec = CumulantSpec.free_poisson(lam)
        from_dp = dp_cumulants((spec, spec), ANTICOMMUTATOR_WEIGHTS, 4)
        for n, coeffs in enumerate(levels, start=1):
            value = sum(d * lam ** (n + 1 - r) for r, d in enumerate(coeffs))
            require(value == from_dp[n - 1], (n, lam))
    return "rate polynomial of the level scan vs dp, n <= 4"


def _poisson_pair(n_max: int) -> list[Fraction]:
    """kappa_n(ab + ba) to n_max for free Poisson(1) a and b, by dp, not the counting recursion."""
    one = CumulantSpec.free_poisson(1)
    return dp_cumulants((one, one), ANTICOMMUTATOR_WEIGHTS, n_max)


def functional_equations(rng: random.Random) -> str:
    report = check_functional_equations(*y_series(10))
    require(report.all_pass, report.failing())
    return "four residuals vanish at order 10"


def closed_form_inverse(rng: random.Random) -> str:
    rm = r_m_transfer(_poisson_pair(9), 9)
    inv = minverse_closed_form(9)
    require(inv == rm.M.comp_inverse(), "closed form differs from the inverse of M")
    require(rm.M.compose(inv) == TruncatedSeries.identity(9), "M(closed form) is not z")
    return "closed form inverts the dp moment series at order 9"


def transfer_identity(rng: random.Random) -> str:
    # R from the counting recursion, M from the dp: the identity ties the two.
    r = TruncatedSeries.from_coefficients([0, *free_poisson_pair_cumulants(8)], 8)
    m = r_m_transfer(_poisson_pair(8), 8).M
    inverse = r.comp_inverse() / TruncatedSeries.from_coefficients([1, 1], 8)
    require(m.comp_inverse() == inverse, "M^-1(z) differs from R^-1(z) / (1 + z)")
    return "recursion cumulants and dp moments agree at order 8"


def cauchy_polynomial(rng: random.Random) -> str:
    moments = moments_from_cumulants(CumulantSpec.explicit(_poisson_pair(8)), 8)
    residual = cauchy_polynomial_residual(8, moments)
    require(all(c == 0 for c in residual), [str(c) for c in residual])
    return "degree-six residual vanishes on 8 dp moments"


SUITES = {
    "kreweras": (roundtrip_and_size, parity_swap, complement_of_family),
    "cactus": (connectivity_is_join, connected_validates, euler_relation, class_sizes),
    "formulas": (routes_agree, quadratic_routes_agree, special_cases, rate_polynomial),
    "series": (functional_equations, closed_form_inverse, transfer_identity, cauchy_polynomial),
}


def _run_check(name: str, check, run: _Run) -> dict:
    try:
        detail = check(run)
        return {"name": name, "pass": True, **({"detail": detail} if detail else {})}
    except AssertionError as exc:
        return {"name": name, "pass": False, "detail": str(exc) or "assertion failed"}
    except Exception as exc:  # a check that crashes fails alone; the rest still run
        return {"name": name, "pass": False, "detail": f"{type(exc).__name__}: {exc}"}


def run_suite(suite: str = "all", seed: int = 1729) -> dict:
    """Run one suite, or all in table order, and return the summary; a
    failing check records its detail and the rest still run."""
    run = _Run(seed)
    results = [
        _run_check(f"{name}.{check.__name__}", check, run)
        for name in (SUITES if suite == "all" else (suite,))
        for check in SUITES[name]
    ]
    failures = [r["name"] for r in results if not r["pass"]]
    return {
        "suite": suite,
        "seed": seed,
        "passed": len(results) - len(failures),
        "failed": len(failures),
        "failures": failures,
        "checks": results,
    }
