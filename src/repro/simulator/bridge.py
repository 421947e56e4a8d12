"""Bridge from an execution strategy to a simulated schedule.

Takes the analytical model's per-chunk times for a concrete (LLM, system,
strategy) and runs the discrete-event schedule with them — so the simulated
Gantt chart, bubble and makespan refer to *that* configuration, not abstract
unit times.  This is the integration point the visualizer example and the
Fig. 2 bench build on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.profile import profile_block
from ..execution.strategy import ExecutionStrategy
from ..hardware.system import System
from ..llm.config import LLMConfig
from .pipeline_sim import PipelineParams, analytical_bubble
from .timeline import Timeline, simulate_timeline


@dataclass(frozen=True)
class ScheduleComparison:
    """Simulated schedule vs the analytical model's closed forms."""

    timeline: Timeline
    params: PipelineParams
    simulated_bubble: float
    analytical_bubble: float

    @property
    def bubble_gap(self) -> float:
        """Relative slack of the realized schedule over the closed form."""
        if self.analytical_bubble == 0:
            return 0.0
        return self.simulated_bubble / self.analytical_bubble - 1.0


def strategy_pipeline_params(
    llm: LLMConfig, system: System, strategy: ExecutionStrategy
) -> PipelineParams:
    """Per-chunk forward/backward times for the strategy's pipeline shape.

    Raises:
        ValueError: when the strategy is structurally invalid for the system.
    """
    strategy.validate(llm, system)
    prof = profile_block(
        llm,
        system,
        strategy.microbatch,
        strategy.tensor_par,
        strategy.seq_par,
        strategy.fused_activations,
        strategy.tp_redo_sp,
        strategy.recompute,
        strategy.tp_mode,
    )
    blocks_per_chunk = strategy.blocks_per_chunk(llm.num_blocks)
    fw_chunk = blocks_per_chunk * prof.fw_time
    bw_chunk = blocks_per_chunk * (prof.bw_time + prof.recompute_time)
    pp_net = (
        system.network_for_span(
            min(system.num_procs, strategy.tensor_par * strategy.pipeline_par)
        )
        if strategy.pipeline_par > 1
        else None
    )
    p2p = 0.0
    if pp_net is not None:
        act = (
            strategy.microbatch
            * llm.seq_size
            * llm.hidden
            * llm.bytes_per_element
        )
        if strategy.pp_rs_ag:
            act /= strategy.tensor_par
        p2p = pp_net.collective_time("p2p", act, 2)
    return PipelineParams(
        num_stages=strategy.pipeline_par,
        num_microbatches=strategy.num_microbatches,
        interleaving=strategy.pp_interleaving,
        fw_time=fw_chunk,
        bw_time=bw_chunk,
        p2p_time=p2p,
    )


def simulate_strategy(
    llm: LLMConfig, system: System, strategy: ExecutionStrategy
) -> ScheduleComparison:
    """Simulate the strategy's pipeline schedule and compare to the model."""
    params = strategy_pipeline_params(llm, system, strategy)
    timeline = simulate_timeline(params)
    return ScheduleComparison(
        timeline=timeline,
        params=params,
        simulated_bubble=timeline.stats.bubble_time,
        analytical_bubble=analytical_bubble(params),
    )
