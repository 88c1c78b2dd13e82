"""AutoTuner: estimates, decisions, and the evaluate-all oracle match."""

import numpy as np
import pytest

from repro.core import PipelineConfig
from repro.core.autotune import (
    AutoTuner,
    choice_regret,
    exhaustive_oracle,
    measured_workload,
)
from repro.core.scenarios import get_scenario, scenario_matrix
from repro.errors import ConfigError

#: Generated-scenario match threshold (the PR's acceptance criterion).
MATCH_THRESHOLD = 0.9

#: A choice counts as matching the oracle when it is identical or a
#: near-tie: its simulated makespan within 1% of the simulated optimum.
NEAR_TIE_REGRET = 0.01


@pytest.fixture(scope="module")
def tuner():
    return AutoTuner("bebop")


@pytest.fixture(scope="module")
def balanced():
    return get_scenario("balanced").workload(seed=0)


class TestEstimates:
    def test_every_registered_strategy_estimable(self, tuner, balanced):
        decision = tuner.evaluate(balanced)
        assert {e.strategy for e in decision.estimates} >= {
            "nocomp", "filter", "overlap", "reorder",
        }
        for est in decision.estimates:
            assert est.makespan_seconds > 0

    def test_nocomp_estimate_is_pure_write_time(self, tuner, balanced):
        est = tuner.estimate("nocomp", balanced)
        assert est.predict_seconds == 0.0
        assert est.compress_seconds == 0.0
        assert est.makespan_seconds == est.write_seconds

    def test_breakdown_sums_below_makespan(self, tuner, balanced):
        for name in ("overlap", "reorder"):
            est = tuner.estimate(name, balanced)
            floor = est.predict_seconds + est.allgather_seconds + est.compress_seconds
            assert est.makespan_seconds >= floor - 1e-12

    def test_warm_start_drops_prediction_overhead(self, tuner, balanced):
        cold = tuner.estimate("reorder", balanced)
        warm = tuner.estimate("reorder", balanced, warm_start=True)
        assert cold.predict_seconds > 0.0
        assert warm.predict_seconds == 0.0
        assert warm.makespan_seconds < cold.makespan_seconds

    def test_reorder_never_estimated_above_overlap_by_much(self, tuner, balanced):
        """Algorithm 1 optimizes the same TIME model the estimate uses, so
        reorder's estimate can exceed overlap's only through the ordering
        model's cost mismatch — a near-tie, never a blowout."""
        over = tuner.estimate("overlap", balanced).makespan_seconds
        reord = tuner.estimate("reorder", balanced).makespan_seconds
        assert reord <= over * 1.02

    def test_unknown_strategy_and_empty_candidates(self, tuner, balanced):
        with pytest.raises(ConfigError):
            tuner.estimate("not-a-strategy", balanced)


class TestDecision:
    def test_best_and_ranking(self, tuner, balanced):
        decision = tuner.evaluate(balanced)
        ranking = decision.ranking()
        makespans = [e.makespan_seconds for e in ranking]
        assert makespans == sorted(makespans)
        assert ranking[0].strategy == decision.choice
        with pytest.raises(ConfigError):
            decision.estimate_for("not-there")

    def test_choice_regret_validates_choice(self, balanced):
        with pytest.raises(ConfigError):
            choice_regret("not-a-strategy", balanced, "bebop")


class TestOracleMatch:
    """Acceptance: the tuner matches the exhaustive simulate-everything
    oracle on ≥ 90% of generated scenarios."""

    def _match_rate(self, machine, seeds):
        tuner = AutoTuner(machine)
        cases = scenario_matrix(seeds=seeds)
        matched = 0
        for case in cases:
            choice = tuner.choose(case.workload)
            oracle = exhaustive_oracle(case.workload, machine)
            if choice == oracle:
                matched += 1
            elif choice_regret(choice, case.workload, machine) <= NEAR_TIE_REGRET:
                matched += 1
        return matched / len(cases)

    def test_matches_oracle_on_generated_scenarios(self):
        assert self._match_rate("bebop", seeds=(0, 1)) >= MATCH_THRESHOLD

    @pytest.mark.slow
    @pytest.mark.parametrize("machine", ["bebop", "summit"])
    def test_matches_oracle_full_matrix(self, machine):
        assert self._match_rate(machine, seeds=(0, 1, 2)) >= MATCH_THRESHOLD

    def test_regret_bounded_everywhere(self):
        """Even a mismatched pick is never a blowout: simulated regret of
        the tuner's choice stays within a few percent."""
        tuner = AutoTuner("bebop")
        for case in scenario_matrix(seeds=(0,)):
            regret = choice_regret(tuner.choose(case.workload), case.workload, "bebop")
            assert regret <= 0.05, case.label


class TestMeasuredWorkload:
    def test_builds_next_step_snapshot(self):
        wl = measured_workload(
            ["a", "b"],
            per_rank_actual=[{"a": 100, "b": 300}, {"a": 120, "b": 280}],
            per_rank_n_values=[1000, 1000],
        )
        assert wl.nfields == 2 and wl.nranks == 2
        assert wl.matrix("actual_nbytes")[0, 0] == 100
        # The previous step's actuals are the next step's predictions.
        assert np.array_equal(wl.matrix("predicted_nbytes"), wl.matrix("actual_nbytes"))
        assert wl.matrix("original_nbytes")[0, 0] == 4000

    def test_rank_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            measured_workload(["a"], [{"a": 1}], [100, 100])
