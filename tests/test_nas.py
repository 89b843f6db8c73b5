import sys

import numpy as np
import pytest

from mpcadapter.costmodel import PUBLISHED_WAN
from mpcadapter.nas import (DEMO_TABLE, Controller, CommandEvaluator,
                            EvaluatorError, ExhaustiveController, SearchSpace,
                            SearchTargets, TableEvaluator, brute_force_search,
                            latency_model_fn, nas_search)

LAT = latency_model_fn(PUBLISHED_WAN)
SPACE = SearchSpace(heads=(1, 2, 4), ranks=(4, 8, 12, 16), s_max=3)


def demo_evaluator():
    return TableEvaluator.from_csv(DEMO_TABLE)


def table_fn(h, r, s):
    return min(0.99, 0.5 + 0.02 * r + 0.05 * s + 0.005 * h)


# ---------------------------------------------------------------------------
# spaces and targets

def test_space_valid_pairs():
    space = SearchSpace(heads=(2, 3), ranks=(4, 9), s_max=1)
    assert space.valid_pairs() == [(2, 4), (3, 9)]
    assert space.h_init == 2 and space.r_init == 4


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(heads=(), ranks=(4,), s_max=1)
    with pytest.raises(ValueError):
        SearchSpace(heads=(1,), ranks=(4,), s_max=0)
    for heads, ranks in [((0,), (4,)), ((1,), (0,)), ((3,), (4,))]:
        with pytest.raises(ValueError, match="divisible"):
            SearchSpace(heads=heads, ranks=ranks, s_max=1)


def test_targets_validation():
    with pytest.raises(ValueError):
        SearchTargets(utility=0, latency_s=1, patience=5)
    with pytest.raises(ValueError):
        SearchTargets(utility=0.5, latency_s=1, patience=0)


# ---------------------------------------------------------------------------
# controller

def test_controller_uniform_sampling():
    ctrl = Controller([(1, 4), (1, 8), (2, 4), (2, 8)], seed=0)
    n = 10_000
    counts = {}
    for _ in range(n):
        p = ctrl.sample()
        counts[p] = counts.get(p, 0) + 1
    for pair in ctrl.pairs:
        assert abs(counts[pair] / n - 0.25) <= 0.03


def test_controller_single_pair():
    ctrl = Controller([(1, 4)], seed=0)
    assert all(ctrl.sample() == (1, 4) for _ in range(10))


def test_controller_seed_determinism():
    draws1 = [Controller([(1, 4), (2, 8)], seed=5).sample() for _ in range(1)]
    a = Controller([(1, 4), (2, 8)], seed=5)
    b = Controller([(1, 4), (2, 8)], seed=5)
    assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]


def test_update_raises_probability():
    ctrl = Controller([(1, 4), (2, 8)], seed=0)
    ctrl.update((1, 4), 1.0)  # sets baseline
    before = ctrl.probabilities()[0]
    ctrl.update((1, 4), 2.0)  # above baseline
    assert ctrl.probabilities()[0] > before


def test_update_at_baseline_is_noop():
    ctrl = Controller([(1, 4), (2, 8)], seed=0)
    ctrl.update((1, 4), 1.0)
    theta = ctrl.theta.copy()
    ctrl.update((2, 8), ctrl.baseline)
    assert np.array_equal(ctrl.theta, theta)


def test_update_converges_on_rewarded_pair():
    ctrl = Controller([(1, 4), (2, 8), (4, 8)], seed=0)
    for _ in range(300):
        pair = ctrl.sample()
        ctrl.update(pair, 2.0 if pair == (2, 8) else 0.0)
    assert ctrl.probabilities()[ctrl.pairs.index((2, 8))] > 0.9


def test_update_rejects_nonfinite():
    ctrl = Controller([(1, 4)], seed=0)
    with pytest.raises(ValueError):
        ctrl.update((1, 4), float("inf"))


def test_exhaustive_controller_cycles():
    ctrl = ExhaustiveController([(2, 8), (1, 4)], order_key=lambda p: p[0])
    draws = [ctrl.sample() for _ in range(4)]
    assert draws == [(1, 4), (2, 8), (1, 4), (2, 8)]


# ---------------------------------------------------------------------------
# evaluators

def test_table_evaluator_bundled():
    ev = demo_evaluator()
    assert 0.0 <= ev(1, 4, 1) <= 1.0
    with pytest.raises(EvaluatorError):
        ev(7, 4, 1)


def test_table_evaluator_range_check():
    ev = TableEvaluator({(1, 4, 1): 1.5})
    with pytest.raises(EvaluatorError):
        ev(1, 4, 1)


def test_command_evaluator(tmp_path):
    script = tmp_path / "eval.py"
    script.write_text(
        "import argparse\n"
        "p = argparse.ArgumentParser()\n"
        "for k in ('--h', '--r', '--s'):\n"
        "    p.add_argument(k, type=int, required=True)\n"
        "a = p.parse_args()\n"
        "print(min(0.99, 0.5 + 0.02 * a.r + 0.05 * a.s + 0.005 * a.h))\n")
    ev = CommandEvaluator([sys.executable, str(script)])
    assert ev(1, 8, 1) == pytest.approx(table_fn(1, 8, 1))


def test_command_evaluator_failure(tmp_path):
    script = tmp_path / "bad.py"
    script.write_text("import sys; sys.exit(3)\n")
    with pytest.raises(EvaluatorError, match="exited 3"):
        CommandEvaluator([sys.executable, str(script)])(1, 4, 1)


def test_command_evaluator_that_cannot_start(tmp_path):
    """A command that cannot be run is an evaluator error, as is one that
    exits non-zero."""
    with pytest.raises(EvaluatorError, match="cannot start"):
        CommandEvaluator([str(tmp_path / "no_such_cmd")])(1, 4, 1)


# ---------------------------------------------------------------------------
# brute force oracle

def test_brute_force_hand_enumeration():
    space = SearchSpace(heads=(1, 2), ranks=(4, 8), s_max=1)
    table = TableEvaluator({(1, 4, 1): 0.3, (1, 8, 1): 0.7,
                            (2, 4, 1): 0.4, (2, 8, 1): 0.9})
    targets = SearchTargets(utility=0.6, latency_s=10.0, patience=5)
    got = brute_force_search(targets, LAT, space, table)
    # (1,8,1) and (2,8,1) meet the target; (1,8) is cheaper
    assert (got.h, got.r, got.s) == (1, 8, 1)
    assert got.utility == 0.7


def test_brute_force_no_feasible_config():
    targets = SearchTargets(utility=0.5, latency_s=0.01, patience=5)
    got = brute_force_search(targets, LAT, SPACE, demo_evaluator())
    assert not got.feasible
    assert got.h is None


def test_brute_force_vacuous_utility_target():
    targets = SearchTargets(utility=1e-9, latency_s=10.0, patience=5)
    got = brute_force_search(targets, LAT, SPACE, demo_evaluator())
    lats = [LAT(h, r, s) for h, r, s in SPACE.configs()]
    assert LAT(got.h, got.r, got.s) == pytest.approx(min(lats))


def test_brute_force_fallback_to_max_utility():
    targets = SearchTargets(utility=0.999, latency_s=2.0, patience=5)
    got = brute_force_search(targets, LAT, SPACE, demo_evaluator())
    assert got.feasible
    feasible = [(h, r, s) for h, r, s in SPACE.configs()
                if LAT(h, r, s) <= 2.0]
    best = max(table_fn(*c) for c in feasible)
    assert got.utility == pytest.approx(best, abs=1e-4)


# ---------------------------------------------------------------------------
# controller-guided search

def _targets(**kw):
    base = dict(utility=0.85, latency_s=2.0, patience=50)
    base.update(kw)
    return SearchTargets(**base)


def test_search_degenerate_space():
    space = SearchSpace(heads=(1,), ranks=(8,), s_max=1)
    got = nas_search(_targets(utility=0.6), LAT, space, demo_evaluator(), seed=0)
    assert (got.h, got.r, got.s) == (1, 8, 1)
    assert len(got.evaluations) == 1


def test_search_exhaustive_matches_brute_force():
    oracle = brute_force_search(_targets(), LAT, SPACE, demo_evaluator())
    ctrl = ExhaustiveController(SPACE.valid_pairs(),
                               order_key=lambda p: LAT(p[0], p[1], 1))
    got = nas_search(_targets(), LAT, SPACE, demo_evaluator(), controller=ctrl)
    assert (got.h, got.r, got.s) == (oracle.h, oracle.r, oracle.s)
    assert got.utility == oracle.utility


def test_search_never_evaluates_over_budget():
    targets = _targets(utility=0.999, latency_s=1.0)
    got = nas_search(targets, LAT, SPACE, demo_evaluator(), seed=1)
    for h, r, s, _ in got.evaluations:
        assert LAT(h, r, s) <= targets.latency_s


def test_search_fallback_returns_best_seen():
    targets = _targets(utility=0.999, latency_s=2.0, patience=30)
    got = nas_search(targets, LAT, SPACE, demo_evaluator(), seed=2)
    assert got.feasible
    assert got.utility < 0.999
    assert LAT(got.h, got.r, got.s) <= targets.latency_s


def test_search_escalation_rule_skips_costly_pairs():
    """A pair costlier than moving to s+1 at the reference pair is never
    evaluated."""
    def lat(h, r, s):
        if h >= 4:
            return 100.0  # costlier than any escalation
        return 0.1 * s + 0.001 * r

    targets = SearchTargets(utility=0.999, latency_s=200.0, patience=10)
    got = nas_search(targets, lat, SPACE, demo_evaluator(), seed=3)
    assert all(h < 4 for h, r, s, _ in got.evaluations)


def test_search_early_return_confirmed_by_oracle():
    got = nas_search(_targets(), LAT, SPACE, demo_evaluator(), seed=4)
    if got.utility >= 0.85:
        oracle = brute_force_search(_targets(), LAT, SPACE, demo_evaluator())
        assert oracle.utility >= 0.85


def test_search_max_samples_cap():
    got = nas_search(_targets(utility=0.999), LAT, SPACE, demo_evaluator(),
                     seed=5, max_samples=20)
    assert got.samples <= 20


def test_search_stochastic_mostly_finds_target():
    wins = 0
    for seed in range(20):
        got = nas_search(_targets(), LAT, SPACE, demo_evaluator(), seed=seed,
                         max_samples=200)
        if got.utility is not None and got.utility >= 0.85:
            wins += 1
    assert wins >= 19
