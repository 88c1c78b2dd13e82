"""Ablation — adaptive strategy selection vs every fixed strategy.

Sweeps the generated scenario matrix and simulates all four registered
strategies plus the auto-tuner's pick per cell.  The claims under test:

* the tuner's choice matches the exhaustive evaluate-all-strategies
  oracle (identical pick, or a near-tie within 1% regret) on ≥ 90% of
  cells — the PR's acceptance criterion at benchmark scale;
* across the whole matrix, adapting per workload is at least as fast as
  the best *fixed* strategy (no single strategy wins every regime, which
  is the reason the auto-tuner exists).
"""

from repro.bench.harness import ExperimentResult, save_result
from repro.core.autotune import AutoTuner
from repro.core.scenarios import scenario_matrix
from repro.core.strategy import STRATEGIES
from repro.core.sweep import simulate_matrix
from repro.exec import ThreadPoolExecutor
from repro.sim.machine import BEBOP

_FIXED = ("nocomp", "filter", "overlap", "reorder")


def _autotune_ablation() -> ExperimentResult:
    cases = scenario_matrix(seeds=(0, 1))
    # The scenario × strategy sweep is the widest fan-out in the suite;
    # run it (and the per-cell tuner pricing) through the thread backend.
    with ThreadPoolExecutor() as ex:
        tuner = AutoTuner(BEBOP, executor=ex)
        cells = simulate_matrix(cases, strategies=_FIXED, machine=BEBOP, executor=ex)
        choices = [tuner.choose(case.workload) for case in cases]
    by_case = {}
    for cell in cells:
        by_case.setdefault(cell.case_label, {})[cell.strategy] = cell.makespan_seconds
    rows = []
    for case, choice in zip(cases, choices):
        sims = by_case[case.label]
        # The oracle and the regret derive from the sims already run
        # (min() keeps the first minimum — the shared tie rule).
        oracle = min(_FIXED, key=lambda n: sims[n])
        regret = sims[choice] / sims[oracle] - 1.0
        rows.append(
            {
                "scenario": case.scenario.name,
                "seed": case.seed,
                **{f"{name}_s": sims[name] for name in _FIXED},
                "auto_pick": choice,
                "oracle": oracle,
                "auto_s": sims[choice],
                "regret": regret,
            }
        )
    return ExperimentResult(
        name="ablation_autotune",
        title="Ablation — auto-tuned strategy vs each fixed strategy",
        rows=rows,
        meta={"machine": BEBOP.name, "strategies": list(STRATEGIES)},
    )


def test_autotune_ablation(run_once):
    res = run_once(_autotune_ablation)
    save_result(res)
    rows = res.rows
    matched = sum(
        1 for r in rows if r["auto_pick"] == r["oracle"] or r["regret"] <= 0.01
    )
    assert matched / len(rows) >= 0.9
    # Adapting per cell beats (or ties) the best fixed strategy overall.
    auto_total = sum(r["auto_s"] for r in rows)
    best_fixed_total = min(sum(r[f"{n}_s"] for r in rows) for n in _FIXED)
    assert auto_total <= best_fixed_total * 1.02
    # And no fixed strategy is the per-cell winner everywhere — the regime
    # diversity the scenario generator is for.
    assert len({r["oracle"] for r in rows}) >= 2
