"""Scenario × strategy sweeps through the executor fan-out.

The generated scenario matrix (:func:`repro.core.scenarios.scenario_matrix`)
is swept by three consumers — the sim/real parity tests, the auto-tuner
ablation, and the bench CLI.  Each cell (one strategy simulated over one
generated workload) is independent, which makes the sweep the library's
widest fan-out: ``len(strategies) × len(cases)`` cells.  This module names
that sweep once so every consumer schedules it through the same
:mod:`repro.exec` backend.

Determinism contract: cell results depend only on (strategy, workload,
machine, config) — the executor tests assert identical makespans across
backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import PipelineConfig
from repro.core.scenarios import ScenarioCase, scenario_matrix
from repro.core.strategy import STRATEGIES
from repro.core.writers import SimResult, simulate_strategy
from repro.exec import Executor, resolve_executor
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


def _sweep_cell(cell) -> SweepCell:
    """Simulate one cell."""
    case_label, scenario, seed, strategy, workload, machine, config = cell
    return SweepCell(
        case_label=case_label, scenario=scenario, seed=seed, strategy=strategy,
        result=simulate_strategy(strategy, workload, machine, config),
    )


def simulate_matrix(
    cases: Sequence[ScenarioCase] | None = None,
    strategies: Sequence[str] | None = None,
    machine: str | MachineProfile = "bebop",
    config: PipelineConfig | None = None,
    executor: "str | Executor | None" = None,
) -> list[SweepCell]:
    """Simulate every (case, strategy) cell; case-major, strategy-minor.

    ``cases`` defaults to the full generated matrix, ``strategies`` to
    all four.  Results come back in deterministic cell
    order regardless of backend completion order.
    """
    if cases is None:
        cases = scenario_matrix()
    names = tuple(strategies) if strategies is not None else tuple(STRATEGIES)
    machine = get_machine(machine) if isinstance(machine, str) else machine
    ex = resolve_executor(executor)
    cells = [
        (case.label, case.scenario.name, case.seed, name, case.workload, machine, config)
        for case in cases
        for name in names
    ]
    try:
        return ex.map_cells(_sweep_cell, cells)
    finally:
        # A pool resolved here from a name is ours; caller-passed
        # instances keep caller-managed lifetimes.
        if not isinstance(executor, Executor):
            ex.close()
