"""Run-level analyses built on top of the core model."""

from .batch_scaling import BatchPoint, batch_sweep_fixed, batch_sweep_searched
from .calibration import CalibrationResult, MeasuredRun, calibrate
from .phase_diagram import PhaseCell, dominant_component, phase_diagram
from .pareto import Objective, dominates, knee_point, pareto_front
from .capacity import (
    FrontierPoint,
    memory_frontier,
    minimum_hbm,
    minimum_system_size,
)
from .sensitivity import Elasticity, sensitivity
from .training_run import TrainingRunPlan, plan_training_run

__all__ = [
    "BatchPoint",
    "CalibrationResult",
    "Elasticity",
    "FrontierPoint",
    "MeasuredRun",
    "Objective",
    "PhaseCell",
    "TrainingRunPlan",
    "batch_sweep_fixed",
    "batch_sweep_searched",
    "calibrate",
    "dominant_component",
    "dominates",
    "knee_point",
    "memory_frontier",
    "pareto_front",
    "phase_diagram",
    "minimum_hbm",
    "minimum_system_size",
    "plan_training_run",
    "sensitivity",
]
