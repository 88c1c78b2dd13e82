"""Scenario × strategy sweeps.

The generated scenario matrix (:func:`repro.core.scenarios.scenario_matrix`)
is swept by the sim/real parity tests and the auto-tuner ablation.  Each
cell — one strategy simulated over one generated workload — depends only
on (strategy, workload, machine, config); this module names the sweep
once so every consumer walks the same ``len(cases) × len(strategies)``
cells in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import PipelineConfig
from repro.core.scenarios import ScenarioCase, scenario_matrix
from repro.core.strategy import STRATEGIES
from repro.core.writers import SimResult, simulate_strategy
from repro.sim.machine import MachineProfile, get_machine


@dataclass(frozen=True)
class SweepCell:
    """One (scenario-case, strategy) simulation outcome."""

    case_label: str
    scenario: str
    seed: int
    strategy: str
    result: SimResult = field(repr=False)

    @property
    def makespan_seconds(self) -> float:
        """Simulated makespan."""
        return self.result.makespan_seconds


def simulate_matrix(
    cases: Sequence[ScenarioCase] | None = None,
    strategies: Sequence[str] | None = None,
    machine: str | MachineProfile = "bebop",
    config: PipelineConfig | None = None,
) -> list[SweepCell]:
    """Simulate every (case, strategy) cell; case-major, strategy-minor.

    ``cases`` defaults to the full generated matrix, ``strategies`` to
    all four.
    """
    if cases is None:
        cases = scenario_matrix()
    names = tuple(strategies) if strategies is not None else tuple(STRATEGIES)
    machine = get_machine(machine) if isinstance(machine, str) else machine
    return [
        SweepCell(
            case_label=case.label, scenario=case.scenario.name, seed=case.seed, strategy=name,
            result=simulate_strategy(name, case.workload, machine, config),
        )
        for case in cases
        for name in names
    ]
