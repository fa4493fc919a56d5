import pytest

from hkcluster import (
    CostMeasurement,
    SimConfig,
    estimate_phkpr_distributed,
    kmachine_round_bound,
    kmachine_table,
    step_cap,
    token_count,
)
from hkcluster.generators import random_connected_graph


def meas(M, C, T):
    return CostMeasurement(total_messages=M, max_node_messages=C, rounds=T)


def test_direct_formula_value():
    assert kmachine_round_bound(meas(1000, 100, 10), 10) == 110.0


def test_k_below_two_rejected():
    with pytest.raises(ValueError):
        kmachine_round_bound(meas(10, 1, 1), 1)


def test_c_cannot_exceed_m():
    with pytest.raises(ValueError):
        meas(5, 6, 1)


def test_monotone_decreasing_in_k():
    m = meas(10**6, 10**3, 50)
    bounds = [kmachine_round_bound(m, k) for k in (2, 4, 8, 16, 32, 64)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_walk_protocol_symbolic_shape():
    # with M = r*K, C = r, T = K the bound factors as (1/k)(1/k + 1) * r * K
    r = token_count(1000, 0.1)
    K = step_cap(0.1)
    k = 8
    bound = kmachine_round_bound(meas(r * K, r, K), k)
    assert bound == pytest.approx((1 / k) * (1 / k + 1) * r * K)


def test_measured_run_is_within_symbolic_budget():
    g = random_connected_graph(300, 600, seed=1)
    vec, stats = estimate_phkpr_distributed(g, 0, 5.0, 0.1, SimConfig(seed=1))
    r = token_count(g.node_count, 0.1)
    K = step_cap(0.1)
    measured = CostMeasurement.from_stats(stats)
    symbolic = meas(r * K, r, K)
    for k in (2, 8, 32):
        assert kmachine_round_bound(measured, k) <= kmachine_round_bound(symbolic, k)


def test_table_rows_and_dominating_term():
    m = meas(10**4, 10, 10)  # crossover at k = M/(T*C) = 100
    rows = kmachine_table(m, [2, 4, 1000])
    assert [k for k, _, _ in rows] == [2, 4, 1000]
    assert rows[0][2] == "message-volume"
    assert rows[-1][2] == "rounds-x-degree"
    assert rows[0][1] == kmachine_round_bound(m, 2)
    balanced = kmachine_table(meas(100, 10, 1), [10])
    assert balanced[0][2] == "balanced"
