"""Calibration-tooling tests: recover known knobs from synthetic measurements."""

import pytest

from repro.analysis.calibration import (
    CalibrationResult,
    MeasuredRun,
    _apply_knobs,
    calibrate,
)
from repro.core import calculate
from repro.engine import profile_block
from repro.execution import ExecutionStrategy
from repro.hardware import a100_system
from repro.llm import LLMConfig

LLM = LLMConfig(name="cal-llm", hidden=2048, attn_heads=16, seq_size=1024,
                num_blocks=8)
SYS = a100_system(8, hbm_gib=1_000_000)


def strat(**kw):
    base = dict(tensor_par=8, pipeline_par=1, data_par=1, batch=8,
                microbatch=1, recompute="full")
    base.update(kw)
    return ExecutionStrategy(**base)


def synthetic_runs(plateau, hbm_eff, strategies):
    """Generate 'measured' times from a system with known knobs."""
    runs = []
    for s in strategies:
        profile_block.cache_clear()
        sys_ = _apply_knobs(SYS, plateau, hbm_eff)
        t = calculate(LLM, sys_, s).batch_time
        runs.append(MeasuredRun(llm=LLM, system=SYS, strategy=s, measured_time=t))
    profile_block.cache_clear()
    return runs


def test_apply_knobs_scales_plateau():
    sys_ = _apply_knobs(SYS, 0.5, 0.7)
    top = sys_.processor.matrix_efficiency.points[-1][1]
    assert top == pytest.approx(0.5)
    assert sys_.mem1.efficiency == pytest.approx(0.7)


def test_apply_knobs_caps_at_one():
    sys_ = _apply_knobs(SYS, 1.0, 1.0)
    for _, e in sys_.processor.matrix_efficiency.points:
        assert e <= 1.0


def test_measured_run_validation():
    with pytest.raises(ValueError):
        MeasuredRun(llm=LLM, system=SYS, strategy=strat(), measured_time=0.0)


def test_calibrate_requires_runs():
    with pytest.raises(ValueError):
        calibrate([])


def test_calibrate_recovers_known_knobs():
    target_p, target_h = 0.7, 0.6
    strategies = [
        strat(),
        strat(microbatch=2),
        strat(recompute="none"),
        strat(tensor_par=4, pipeline_par=2),
    ]
    runs = synthetic_runs(target_p, target_h, strategies)
    result = calibrate(runs)
    # The fitted model reproduces the synthetic measurements tightly...
    assert result.mean_abs_error < 0.03
    # ...and the dominant knob (matrix plateau) is recovered closely.
    assert result.matrix_plateau == pytest.approx(target_p, abs=0.08)


def test_calibrate_reports_errors_and_predictions():
    runs = synthetic_runs(0.8, 0.6, [strat(), strat(microbatch=2)])
    result = calibrate(runs)
    assert isinstance(result, CalibrationResult)
    assert len(result.predictions) == 2
    assert result.max_abs_error >= result.mean_abs_error


def test_calibrate_with_custom_grids():
    runs = synthetic_runs(0.6, 0.6, [strat()])
    result = calibrate(runs, plateau_grid=[0.5, 0.6, 0.7], hbm_grid=[0.5, 0.6])
    assert 0.45 <= result.matrix_plateau <= 0.75
    assert result.mean_abs_error < 0.10
