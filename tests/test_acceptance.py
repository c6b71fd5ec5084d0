"""Acceptance gate: ten end-to-end checks, one test each.

Each test prints one line naming the criterion and the measured values,
then asserts every subcheck. Tolerances are fixed here and nowhere
tightened or loosened at runtime; each test also enforces its own wall
clock budget.
"""

import math
import time

import numpy as np

from lprlab.analytic import (
    GhlsCostModel,
    Grouping,
    RegularityModel,
    enumerate_groupings,
    first_order_cdf,
    ghls_breakeven,
    ghls_total_cost,
    lpr_total_cost,
    mean_latency,
    mean_traffic,
    pareto_front,
    regularity,
    zeroth_order_cdf,
)
from lprlab.mobility import MobilityParams, empirical_success_after_k, generate_trace
from lprlab.simnet.gpsr import gpsr_route
from lprlab.simnet.topology import build_topology, topology_from_positions
from lprlab.simnet.scenario import ScenarioConfig, compare_ghls, run_scenario


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, (
            f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
        )
        return elapsed


def _report(name, checks, elapsed):
    ok = all(passed for _, passed in checks)
    detail = "; ".join(label for label, _ in checks)
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail}) [{elapsed:.1f}s]")
    failed = [label for label, passed in checks if not passed]
    assert not failed, f"{name} failed: {failed}"


def test_criterion_01_constant_regularity_golden_values():
    budget = _Budget("criterion 1", 1.0)
    f1 = zeroth_order_cdf(1)
    f2 = zeroth_order_cdf(2)
    f10 = zeroth_order_cdf(10)
    checks = [
        (f"F(1)={f1}", f1 == 0.48),
        (f"F(2)={f2:.4f} vs 0.60+-0.01", abs(f2 - 0.60) <= 0.01),
        (f"F(10)={f10:.4f} vs 0.80+-0.01", abs(f10 - 0.80) <= 0.01),
    ]
    _report("criterion 1", checks, budget.check())


def test_criterion_02_regularity_curve_statistics():
    # Known miss: the floor subcheck fails. On this grid R(t) bottoms out
    # at 0.5279, below the 0.53 floor, and the passing
    # test_analytic.py::TestRegularity::test_range_on_fine_grid pins that
    # minimum at 0.5278995 to 1e-6 (test_monday_midnight and
    # test_weekday_morning pin R(t) itself to 1e-12). Both cannot pass;
    # which of the constants c1..c3 or this floor is wrong needs the
    # paper's body text to settle.
    budget = _Budget("criterion 2", 1.0)
    grid = np.linspace(0.0, 24.0, 24_001)
    values = [regularity(t) for t in grid]
    lo, hi = min(values), max(values)
    hours = [regularity(t + 0.5) for t in range(168)]
    mean = sum(hours) / len(hours)
    checks = [
        (f"min R={lo:.4f} >= 0.53", lo >= 0.53),
        (f"max R={hi:.4f} <= 0.92", hi <= 0.92),
        (f"mean R={mean:.4f} vs 0.65+-0.02", abs(mean - 0.65) <= 0.02),
    ]
    _report("criterion 2", checks, budget.check())


def test_criterion_03_time_averaged_golden_values():
    # Known miss: the F(12) subcheck fails. F(12) = 0.9155 against
    # 0.93 +- 0.01, whose lower edge is 0.92, and the passing
    # test_analytic.py::TestFirstOrder::test_golden_values pins F(12) at
    # 0.915509730139411 to 1e-9. Both cannot pass; which side is wrong
    # needs the paper's body text to settle.
    budget = _Budget("criterion 3", 1.0)
    f5 = first_order_cdf(5)
    f12 = first_order_cdf(12)
    checks = [
        (f"F(5)={f5:.4f} vs 0.85+-0.02", abs(f5 - 0.85) <= 0.02),
        (f"F(12)={f12:.4f} vs 0.93+-0.01", abs(f12 - 0.93) <= 0.01),
    ]
    _report("criterion 3", checks, budget.check())


def test_criterion_04_pareto_front_knee_and_dominance():
    # Known miss: the knee subcheck fails. The passing
    # test_analytic.py::TestFirstOrder::test_golden_values pins F(1), F(2),
    # F(3), F(5) and F(12). Latency and traffic read F only at stage
    # starts and both fall as F rises, so the most favourable
    # non-decreasing CDF through those values has F(4) = F(5) and
    # F(6..11) = F(12). Even under it every one of the 2048 groupings has
    # L > 1.30 or T > 4; the closest, 3|3|6, reaches L = 1.2735 at
    # T = 4.0740. Both cannot pass; which side is wrong needs the paper's
    # body text to settle.
    budget = _Budget("criterion 4", 10.0)
    front = pareto_front(12)
    knee_members = [
        p for p in front if p.latency <= 1.30 and 3.0 <= p.traffic <= 4.0
    ]
    closest = min(front, key=lambda p: abs(p.latency - 1.25) + abs(p.traffic - 3.5))
    all_points = [
        (mean_latency(g), mean_traffic(g)) for g in enumerate_groupings(12)
    ]
    eps = 1e-9
    dominated = []
    for p in front:
        for lat, traf in all_points:
            if (
                lat <= p.latency + eps
                and traf <= p.traffic + eps
                and (lat < p.latency - eps or traf < p.traffic - eps)
            ):
                dominated.append(p.grouping)
                break
    checks = [
        (
            f"front has L<=1.30 with T in [3,4] (closest {closest.grouping}: "
            f"L={closest.latency:.4f}, T={closest.traffic:.4f})",
            bool(knee_members),
        ),
        (
            f"all {len(front)} front points non-dominated over 2048 groupings",
            len(all_points) == 2048 and not dominated,
        ),
    ]
    _report("criterion 4", checks, budget.check())


def test_criterion_05_break_even_identity_and_sign_consistency():
    budget = _Budget("criterion 5", 1.0)
    exact = ghls_breakeven(1.0, 3.0)
    rng = np.random.default_rng(123)
    mismatches = 0
    for _ in range(1000):
        model = GhlsCostModel(
            f=float(rng.uniform(0.0, 10.0)),
            r=float(rng.uniform(0.1, 10.0)),
            s=float(rng.uniform(0.5, 20.0)),
            p=float(rng.uniform(0.5, 20.0)),
            t_bar=float(rng.uniform(1.0, 12.0)),
        )
        threshold = ghls_breakeven(model.p / model.s, model.t_bar)
        margin = model.f / model.r - threshold
        cost_gap = ghls_total_cost(model) - lpr_total_cost(model)
        if abs(margin) < 1e-9:
            continue
        if (margin > 0) != (cost_gap > 0):
            mismatches += 1
    checks = [
        (f"breakeven(1,3)={exact}", exact == 2.0),
        (f"sign mismatches {mismatches}/1000", mismatches == 0),
    ]
    _report("criterion 5", checks, budget.check())


def test_criterion_06_trace_statistics_match_model():
    budget = _Budget("criterion 6", 120.0)
    traces = generate_trace(MobilityParams(n_users=4, n_weeks=2500, seed=42))
    checks = []
    for k in (1, 2, 5, 12):
        empirical = empirical_success_after_k(traces, k)
        expected = first_order_cdf(k)
        diff = empirical - expected
        checks.append(
            (f"k={k}: {empirical:.4f} vs {expected:.4f} ({diff:+.4f})",
             abs(diff) <= 0.03)
        )
    _report("criterion 6", checks, budget.check())


def test_criterion_07_routing_success_on_dense_graphs():
    budget = _Budget("criterion 7", 60.0)
    rng = np.random.default_rng(7)
    topologies = []
    seed = 0
    while len(topologies) < 100:
        topo = build_topology(50, 1000.0, 280.0, seed=seed)
        seed += 1
        if topo.connected and topo.avg_degree() >= 8.0:
            topologies.append(topo)
    routed = failed = 0
    for topo in topologies:
        for _ in range(20):
            s, d = rng.choice(topo.n, size=2, replace=False)
            route = gpsr_route(
                topo, int(s), tuple(topo.position(int(d))), ttl=8 * topo.n
            )
            routed += 1
            failed += not route.success

    void = topology_from_positions(
        [(0.0, 0.0), (3.0, 0.0), (3.0, 3.0), (3.0, -3.0),
         (7.0, 2.5), (7.0, -2.5), (10.0, 0.0)],
        4.2,
    )
    recovery = gpsr_route(void, 0, (10.0, 0.0))
    checks = [
        (f"{routed - failed}/{routed} pairs on {len(topologies)} graphs",
         failed == 0 and routed == 2000),
        (
            f"void fixture: success={recovery.success}, "
            f"perimeter hops={recovery.perimeter_hops}",
            recovery.success and recovery.perimeter_hops >= 1,
        ),
    ]
    _report("criterion 7", checks, budget.check())


def test_criterion_08_simulation_matches_means_at_k5():
    budget = _Budget("criterion 8", 300.0)
    checks = []
    for sizes in ((1, 1, 1, 1, 1), (2, 3)):
        grouping = Grouping(sizes)
        config = ScenarioConfig(
            trials=10_000,
            n_candidates=5,
            grouping=grouping,
            seed=42,
        )
        record, _ = run_scenario(config)
        lat_err = record.mean_latency_factor / mean_latency(grouping) - 1.0
        traf_err = record.traffic_factor / mean_traffic(grouping) - 1.0
        checks.append(
            (f"{grouping} latency {lat_err:+.3%}", abs(lat_err) <= 0.05)
        )
        checks.append(
            (f"{grouping} traffic {traf_err:+.3%}", abs(traf_err) <= 0.05)
        )
    _report("criterion 8", checks, budget.check())


def test_criterion_09_empirical_crossover_window():
    budget = _Budget("criterion 9", 300.0)
    config = ScenarioConfig(
        trials=10_000,
        n_candidates=12,
        grouping=Grouping((1, 2, 6, 3)),
        seed=42,
    )
    comparison = compare_ghls(config)
    ratio = comparison.s_hat / comparison.p_hat
    checks = [
        (f"s/p={ratio:.3f} within [0.8, 1.25]", 0.8 <= ratio <= 1.25),
        (
            f"crossover f/r={comparison.crossover:.3f} within [1.5, 2.5]",
            comparison.crossover is not None
            and 1.5 <= comparison.crossover <= 2.5,
        ),
    ]
    _report("criterion 9", checks, budget.check())


def test_criterion_10_grouped_delivery_headline():
    budget = _Budget("criterion 10", 300.0)
    config = ScenarioConfig(
        trials=20_000,
        n_candidates=12,
        grouping=Grouping((2, 10)),
        seed=42,
    )
    record, _ = run_scenario(config)
    ratio = record.ratio_vs_reachability
    front = pareto_front(12)
    members = [p for p in front if 1.45 <= p.latency <= 2.05]
    checks = [
        (
            f"delivery/reachability={ratio:.4f} vs 0.93+-0.02 "
            f"(latency factor {record.mean_latency_factor:.3f})",
            abs(ratio - 0.93) <= 0.02,
        ),
        (
            f"{len(members)} front points with latency in [1.45, 2.05]",
            bool(members),
        ),
    ]
    _report("criterion 10", checks, budget.check())
