"""The one cap check: ``check_cap`` itself, and every site that calls it.

Each site runs at exactly its cap and refuses one step past it, before any
work, with the single message shape "<what> exceeds the cap N" naming the
refused size."""

import re

import pytest

from freecactus.cli import _parse, cmd_count
from freecactus.cumulants import (
    ANTICOMMUTATOR_WEIGHTS,
    CumulantSpec,
    WeightMatrix,
    oracle_anticommutator_moments,
    oracle_quadratic_moments,
)
from freecactus.dp import dp_cumulants
from freecactus.errors import ResourceCapError, check_cap
from freecactus.partitions import enumerate_nc, level_counts

# ------------------------------------------------------------------ helper


def test_none_means_the_default():
    check_cap(5, None, 5, "a request")
    with pytest.raises(ResourceCapError, match=r"^a request exceeds the cap 5$"):
        check_cap(6, None, 5, "a request")


def test_an_explicit_cap_overrides_the_default():
    check_cap(9, 9, 5, "a request")
    with pytest.raises(ResourceCapError, match=r"^a request exceeds the cap 3$"):
        check_cap(4, 3, 5, "a request")


@pytest.mark.parametrize("cap", [1, 2, 16, 60])
def test_a_size_equal_to_the_cap_passes(cap):
    assert check_cap(cap, cap, 4, "a request") is None


# ------------------------------------------------------------------- sites


def _count_levels(m, cap):
    return cmd_count(_parse(["count", "levels", "--m", str(m), "--cap", str(cap)]))


ONE = CumulantSpec.free_poisson(1)
SEMI = CumulantSpec.semicircular()

# site: (call(k, cap), k at the cap, cap passed, cap in force, checked size of k)
SITES = {
    "enumerate_nc": (lambda m, cap: list(enumerate_nc(m, cap=cap)), 6, 6, 6, lambda m: m),
    "level_counts": (lambda m, cap: level_counts(m, cap=cap), 8, 8, 8, lambda m: m),
    "count levels": (_count_levels, 9, 9, 9, lambda m: m),
    "quadratic oracle": (
        lambda n, cap: oracle_quadratic_moments((SEMI,), WeightMatrix(((1,),)), n, cap=cap),
        4,
        None,
        4,
        lambda n: n,
    ),
    "anticommutator oracle": (
        lambda n, cap: oracle_anticommutator_moments(ONE, ONE, n, cap=cap),
        5,
        None,
        5,
        lambda n: n,
    ),
    "dp": (
        lambda n, cap: dp_cumulants((ONE, ONE), ANTICOMMUTATOR_WEIGHTS, n, cap=cap),
        4,
        8,
        8,
        lambda n: 2 * n,
    ),
}


@pytest.mark.parametrize("site", SITES)
def test_every_site_runs_at_its_cap_and_refuses_one_past_it(site):
    call, at_cap, cap, limit, size = SITES[site]
    call(at_cap, cap)
    with pytest.raises(ResourceCapError) as exc:
        call(at_cap + 1, cap)
    message = str(exc.value)
    assert message.endswith(f" exceeds the cap {limit}")
    assert re.search(rf"\b{size(at_cap + 1)}\b", message), message
