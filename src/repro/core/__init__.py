"""The paper's contribution: predictive compression-write for parallel HDF5.

* :mod:`config` — pipeline configuration, the extra-space ratio domain
  [1.1, 1.43] and the Fig. 9 performance/storage weight mapping;
* :mod:`offsets` — pre-computed offset tables from predicted sizes, with
  the Eq. (3) extra-space adjustment at extreme ratios;
* :mod:`scheduler` — Algorithm 1, the O(n²) compression-order optimizer;
* :mod:`overflow` — the overflow plan (second all-gather, end-of-file
  placement, Fig. 8);
* :mod:`strategy` — the paper's four Fig. 4 strategies as fixed
  compositions of PredictPhase / PlanPhase / CompressWritePhase /
  OverflowPhase values, in one closed ``STRATEGIES`` table looked up by
  name with ``get_strategy``; each is one phase program
  (``WriteStrategy.program``) the three interpreters below read;
* :mod:`writers` — ``simulate_strategy``, which schedules a strategy's
  program on the discrete-event simulator (timing at scale);
* :mod:`pipeline` — the RealDriver running the same programs for real
  on thread ranks against a PHD5 file (functional correctness):
  ``RealDriver.write`` is the one collective write every caller goes
  through, ``RealDriver.run`` the SPMD rank body underneath it;
* :mod:`session` — what the facade's ``File.append_step`` reports per
  time-step (Fig. 15, ``StepResult``), the ``steps/NNNN`` group each step
  lands in, and the strategy a ``strategy="auto"`` series starts from;
* :mod:`workload` — workload construction: real compression of partitioned
  synthetic datasets, plus deterministic stat-pool scaling for rank counts
  beyond what pure Python can compress in reasonable time;
* :mod:`autotune` — the AutoTuner: analytic per-strategy makespan
  estimates (each program summed in closed form) selecting the
  best of the four strategies per workload/time-step, and ``tune_payload``,
  the probe → workload → evaluate step the facade's flush and steps share;
* :mod:`scenarios` — deterministic named workload regimes (skew,
  imbalance, drift, overflow stress, ...) consumed by the auto-tuner
  tests, the parity matrix, and the ablation benchmarks;
* :mod:`sweep` — the scenario × strategy sweep, one cell after another.
"""

from repro.core.autotune import (
    AutoTuner,
    StrategyEstimate,
    TuningDecision,
    choice_regret,
    exhaustive_oracle,
    measured_workload,
    tune_payload,
)
from repro.core.config import (
    EXTRA_SPACE_MAX,
    EXTRA_SPACE_MIN,
    PipelineConfig,
    extra_space_for_weight,
)
from repro.core.offsets import OffsetTable, effective_extra_space
from repro.core.overflow import OverflowPlan
from repro.core.pipeline import RankWriteStats, RealDriver, WarmHint, warm_slot_ratios
from repro.core.scenarios import (
    SCENARIOS,
    Scenario,
    ScenarioArrays,
    ScenarioCase,
    get_scenario,
    scenario_matrix,
    scenario_names,
)
from repro.core.scheduler import CompressionTask, optimize_order, queue_time
from repro.core.session import StepResult
from repro.core.strategy import (
    STRATEGIES,
    CompressWritePhase,
    OverflowPhase,
    PlanPhase,
    PredictPhase,
    WriteStrategy,
    field_index_map,
    get_strategy,
)
from repro.core.sweep import SweepCell, simulate_matrix
from repro.core.workload import (
    FieldPartitionStats,
    Workload,
    build_workload,
    scale_workload,
    workload_from_arrays,
    workload_from_matrices,
)
from repro.core.writers import SimResult, simulate_strategy

__all__ = [
    "PipelineConfig",
    "EXTRA_SPACE_MIN",
    "EXTRA_SPACE_MAX",
    "extra_space_for_weight",
    "OffsetTable",
    "effective_extra_space",
    "OverflowPlan",
    "CompressionTask",
    "optimize_order",
    "queue_time",
    "WriteStrategy",
    "PredictPhase",
    "PlanPhase",
    "CompressWritePhase",
    "OverflowPhase",
    "STRATEGIES",
    "get_strategy",
    "field_index_map",
    "Workload",
    "FieldPartitionStats",
    "build_workload",
    "scale_workload",
    "workload_from_arrays",
    "workload_from_matrices",
    "AutoTuner",
    "StrategyEstimate",
    "TuningDecision",
    "measured_workload",
    "tune_payload",
    "exhaustive_oracle",
    "choice_regret",
    "Scenario",
    "ScenarioArrays",
    "ScenarioCase",
    "SCENARIOS",
    "scenario_matrix",
    "scenario_names",
    "get_scenario",
    "SimResult",
    "simulate_strategy",
    "SweepCell",
    "simulate_matrix",
    "RealDriver",
    "WarmHint",
    "warm_slot_ratios",
    "RankWriteStats",
    "StepResult",
]
