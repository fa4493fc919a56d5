import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sps

from hkcluster import (
    Graph,
    exact_phkpr,
    serial_estimate_phkpr,
    step_cap,
    token_count,
    walk_parameters,
)
from hkcluster.generators import complete_graph, karate_club_graph
from hkcluster.hkpr import initial_classes

from helpers import dense_phkpr, eps_approximate, random_graph_pool


def two_node():
    return Graph.from_edges(2, [(0, 1)])


# -- walk parameters ---------------------------------------------------------


def test_token_count_formula():
    # 16/0.5^3 = 128 exactly; 128 * ln 1024 = 887.23 -> 888
    assert token_count(1024, 0.5) == 888


def test_step_cap_values():
    assert step_cap(0.1) == 6  # ceil(2 ln10 / lnln10) = ceil(5.522)
    assert step_cap(0.4) == 2  # lnln(2.5) < 0 clamps the denominator to 1
    assert step_cap(0.01) == 7
    assert step_cap(0.1, c=2.0) == 12


def test_walk_parameters_domain():
    assert walk_parameters(1000, 0.1) == (token_count(1000, 0.1), 6)
    with pytest.raises(ValueError):
        walk_parameters(1000, 0.5)
    with pytest.raises(ValueError):
        walk_parameters(1000, 0.0)
    with pytest.raises(ValueError):
        step_cap(0.1, c=0.5)
    with pytest.raises(ValueError):
        token_count(1000, 1.0)


# -- walk lengths ---------------------------------------------------------------


def test_poisson_chi_square_goodness_of_fit():
    # the seed's class split against min(Poisson(t), K) from scipy, with K
    # low enough that the truncated tail is a class of its own
    r = 10**6
    for seed, (t, cap) in enumerate([(3.0, 6), (45.0, 50)]):
        retired, live = initial_classes(t, r, cap, seed)
        observed = np.array([retired] + [live.get(k, 0) for k in range(1, cap + 1)], dtype=float)
        probs = sps.poisson.pmf(np.arange(cap + 1), t)
        probs[cap] = sps.poisson.sf(cap - 1, t)
        expected = probs * r
        # merge the sparse short lengths so every expected count is at least 5
        while expected[0] < 5:
            expected[1] += expected[0]
            observed[1] += observed[0]
            expected, observed = expected[1:], observed[1:]
        stat = ((observed - expected) ** 2 / expected).sum()
        assert stat < sps.chi2.ppf(0.999, df=len(expected) - 1)


# -- exact oracle ---------------------------------------------------------------


def test_exact_identity_at_t_zero():
    g = karate_club_graph()
    vec = exact_phkpr(g, 7, 0.0)
    assert vec.entries == {7: 1.0}


def test_exact_two_node_closed_form():
    g = two_node()
    t = math.log(2)
    vec = exact_phkpr(g, 0, t, tol=1e-12)
    # the walk alternates endpoints: rho(s) = e^-t cosh t, other = e^-t sinh t
    assert vec.entries[0] == pytest.approx(0.625, abs=1e-9)
    assert vec.entries[1] == pytest.approx(0.375, abs=1e-9)


@pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
def test_exact_triangle_closed_form(t):
    g = complete_graph(3)
    vec = exact_phkpr(g, 1, t, tol=1e-12)
    rho_seed = 1 / 3 + (2 / 3) * math.exp(-1.5 * t)
    assert vec.entries[1] == pytest.approx(rho_seed, abs=1e-9)
    assert vec.entries[0] == pytest.approx((1 - rho_seed) / 2, abs=1e-9)
    assert vec.entries[2] == pytest.approx((1 - rho_seed) / 2, abs=1e-9)


def test_exact_against_dense_brute_force():
    for i, g in enumerate(random_graph_pool(10, 50, base_seed=3)):
        t = [0.5, 2.0, 8.0][i % 3]
        vec = exact_phkpr(g, i % g.node_count, t, tol=1e-9)
        oracle = dense_phkpr(g, i % g.node_count, t, tol=1e-9)
        for v in range(g.node_count):
            assert abs(vec.value(v) - oracle[v]) <= 2e-9


def test_exact_is_distribution_up_to_tol():
    g = karate_club_graph()
    vec = exact_phkpr(g, 0, 4.0, tol=1e-6)
    assert all(val > 0 for val in vec.entries.values())
    assert 1 - 1e-6 <= vec.total() <= 1 + 1e-12


def test_diffusion_monotone_on_two_node():
    g = two_node()
    values = [exact_phkpr(g, 0, t, tol=1e-12).entries[0] for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 0.5


# -- serial estimator -------------------------------------------------------------


def test_serial_t_zero_is_indicator():
    g = karate_club_graph()
    vec = serial_estimate_phkpr(g, 3, 0.0, 0.1, rng=0)
    assert vec.entries == {3: Fraction(1)}


def test_serial_conservation_and_support():
    g = karate_club_graph()
    vec = serial_estimate_phkpr(g, 0, 3.0, 0.2, rng=5)
    assert vec.total() == 1
    r, cap = walk_parameters(g.node_count, 0.2)
    assert len(vec.entries) <= r
    dist = g.bfs_distances(0)
    assert all(dist[v] <= cap for v in vec.entries)
    assert all(val.denominator <= r for val in vec.entries.values())


def test_serial_epsilon_approximation_rate():
    g = karate_club_graph()
    exact = exact_phkpr(g, 0, 3.0, tol=1e-12)
    passed = sum(
        eps_approximate(
            exact.entries,
            serial_estimate_phkpr(g, 0, 3.0, 0.1, rng=1000 + i).entries,
            0.1,
            g.node_count,
        )
        for i in range(100)
    )
    assert passed >= 90


def test_serial_single_node_graph():
    g = Graph.from_edges(1, [])
    vec = serial_estimate_phkpr(g, 0, 5.0, 0.2, rng=1)
    assert vec.entries == {0: Fraction(1)}
