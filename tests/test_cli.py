"""CLI smoke tests (each subcommand end-to-end via main())."""

import json

import pytest

from repro.cli import main


def test_run_with_preset_and_flags(capsys):
    rc = main(
        [
            "run",
            "gpt3-175b",
            "a100:64",
            "--tp", "8", "--pp", "8", "--dp", "1",
            "--batch", "64",
            "--recompute", "full",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "batch time" in out
    assert "model evaluated" in out


def test_run_infeasible_returns_nonzero(capsys):
    rc = main(
        ["run", "gpt3-175b", "a100:64", "--tp", "8", "--pp", "8", "--dp", "2",
         "--batch", "64"]
    )
    assert rc == 1
    assert "INFEASIBLE" in capsys.readouterr().out


def test_run_with_json_specs(tmp_path, capsys):
    llm = {
        "name": "mini",
        "hidden": 1024,
        "attn_heads": 16,
        "seq_size": 512,
        "num_blocks": 8,
        "feedforward": 4096,
        "vocab_size": 32000,
        "bits_per_element": 16,
    }
    llm_path = tmp_path / "llm.json"
    llm_path.write_text(json.dumps(llm))
    strat = {
        "tensor_par": 4,
        "pipeline_par": 2,
        "data_par": 1,
        "batch": 8,
        "microbatch": 1,
        "recompute": "full",
    }
    strat_path = tmp_path / "exec.json"
    strat_path.write_text(json.dumps(strat))
    rc = main(["run", str(llm_path), "a100:8", "--strategy", str(strat_path)])
    assert rc == 0
    assert "mini" in capsys.readouterr().out


def test_run_h100_with_offload(capsys):
    rc = main(
        ["run", "megatron-22b", "h100:64:80:512", "--tp", "8", "--pp", "1",
         "--dp", "8", "--batch", "64", "--offload", "--optimizer-sharding"]
    )
    assert rc == 0
    assert "offload used" in capsys.readouterr().out


def test_search_subcommand(capsys):
    rc = main(
        ["search", "megatron-22b", "a100:16", "--batch", "32",
         "--options", "baseline", "--top", "3", "--workers", "0"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "feasible" in out
    assert "config" in out


@pytest.mark.parametrize("stats", [False, True])
def test_search_checkpoint_prints_engine_summary_only_with_stats(
    stats, tmp_path, capsys
):
    argv = ["search", "tiny-test", "a100:8", "--batch", "16", "--top", "2",
            "--checkpoint", str(tmp_path / "ck")]
    rc = main(argv + (["--stats"] if stats else []))
    out = capsys.readouterr().out
    assert rc == 0
    assert "evaluated 5856 configurations" in out
    assert ("fully evaluated" in out) is stats
    assert ("profile groups" in out) is stats


def test_sweep_subcommand(capsys):
    rc = main(
        ["sweep", "megatron-22b", "a100:8", "--batch", "32",
         "--max-size", "16", "--step", "8", "--options", "baseline"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "rel scaling" in out


@pytest.mark.parametrize("argv", [
    ["search", "tiny-test", "a100:8", "--top", "0"],
    ["search", "tiny-test", "a100:8", "--top", "-1"],
    ["search", "tiny-test", "a100:8", "--batch", "0"],
    ["search", "tiny-test", "a100:8", "--batch", "-4"],
    ["sweep", "tiny-test", "a100:8", "--batch", "0"],
])
def test_counts_below_one_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--max-retries", "3"],
                                  ["--chunk-timeout", "5"]])
def test_sweep_rejects_retry_flags(flag, capsys):
    # The per-size searches of a sweep are never retried, so the flags
    # are usage errors instead of being silently ignored.
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "tiny-test", "a100:8", "--batch", "16",
              "--max-size", "8", "--step", "8", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_presets_subcommand(capsys):
    rc = main(["presets"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gpt3-175b" in out
    assert "megatron-1t" in out


def test_bad_system_spec_exits():
    with pytest.raises(SystemExit):
        main(["run", "gpt3-175b", "cray:64"])


@pytest.mark.parametrize("spec, message", [
    ("a100:8:inf", "HBM must be finite"),
    ("a100:8:nan", "HBM must be finite"),
    ("a100:8:0", "HBM must be finite and > 0"),
    ("h100:8:-80", "HBM must be finite and > 0"),
    ("h100:8:80:-5", "DDR must be finite and >= 0"),
    ("h100:8:80:inf", "DDR must be finite"),
])
def test_hostile_system_shorthand_is_an_error_exit(spec, message):
    with pytest.raises(SystemExit) as exc:
        main(["search", "tiny-test", spec, "--batch", "16"])
    assert str(exc.value.code).startswith("error: ")
    assert message in str(exc.value.code)


@pytest.mark.parametrize("tier, field, value, message", [
    ("mem1", "capacity", float("inf"), "mem1 capacity must be finite and > 0"),
    ("mem1", "bandwidth", float("nan"), "mem1 bandwidth must be finite"),
    ("mem2", "capacity", float("inf"), "mem2 capacity must be finite and >= 0"),
])
def test_hostile_system_file_is_an_error_exit(tmp_path, tier, field, value,
                                               message):
    from repro.hardware import a100_system, ddr5_offload
    from repro.io import system_to_dict

    spec = system_to_dict(a100_system(8, offload=ddr5_offload(512)))
    spec[tier][field] = value
    path = tmp_path / "system.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc:
        main(["search", "tiny-test", str(path), "--batch", "16"])
    assert str(exc.value.code).startswith("error: ")
    assert message in str(exc.value.code)


@pytest.mark.parametrize("field, value, message", [
    ("num_blocks", 8.5, "num_blocks must be an integer, got 8.5"),
    ("attn_heads", True, "attn_heads must be an integer, got True"),
    ("seq_size", float("inf"), "seq_size must be an integer, got inf"),
    ("vocab_size", -5, "vocab_size must be >= 1, got -5"),
    ("feedforward", -4, "feedforward must be >= 1, got -4"),
])
def test_hostile_llm_file_is_an_error_exit(tmp_path, field, value, message):
    from repro.llm import get_preset

    spec = get_preset("tiny-test").to_dict()
    spec[field] = value
    path = tmp_path / "llm.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc:
        main(["search", str(path), "a100:8", "--batch", "16"])
    assert str(exc.value.code).startswith("error: ")
    assert message in str(exc.value.code)


def test_unknown_llm_preset_is_an_error_exit():
    with pytest.raises(SystemExit) as exc:
        main(["search", "no-such-model", "a100:8", "--batch", "16"])
    assert str(exc.value.code).startswith("error: unknown LLM preset")


def test_bad_options_preset_exits():
    with pytest.raises(SystemExit):
        main(["search", "gpt3-175b", "a100:16", "--options", "bogus"])


def test_inference_subcommand(capsys):
    rc = main(
        ["inference", "gpt3-175b", "a100:8", "--tp", "8", "--batch", "8",
         "--prompt", "1024", "--generate", "64"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "time to first token" in out
    assert "tokens/s" in out


def test_inference_latency_mode(capsys):
    rc = main(
        ["inference", "megatron-22b", "a100:8", "--tp", "4", "--pp", "2",
         "--batch", "4", "--latency-mode"]
    )
    assert rc == 0


def test_inference_infeasible_returns_nonzero(capsys):
    rc = main(
        ["inference", "megatron-1t", "a100:8", "--tp", "8", "--batch", "64"]
    )
    assert rc == 1
    assert "INFEASIBLE" in capsys.readouterr().out


@pytest.mark.parametrize("flags, message", [
    (["--prompt", "0"], "prompt_len >= 1"),
    (["--generate", "-1"], "generate_len >= 0"),
    (["--tp", "3"], "t*p*d = 6 != system size 16"),
], ids=["prompt-0", "generate-negative", "tp-3"])
def test_inference_bad_input_is_an_error_not_a_traceback(flags, message, capsys):
    rc = main(["inference", "gpt3-175b", "a100:16", "--tp", "8", "--pp", "2"]
              + flags)
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("error: ") and message in out


@pytest.mark.parametrize("flags, message", [
    (["--prompt", "0"], "prompt_len >= 1"),
    (["--generate", "-1"], "generate_len >= 0"),
], ids=["prompt-0", "generate-negative"])
def test_deployments_bad_input_is_an_error_not_a_traceback(flags, message,
                                                           capsys):
    rc = main(["deployments", "gpt3-175b", "a100:16"] + flags)
    out = capsys.readouterr().out
    assert rc == 1
    assert out.startswith("error: ") and message in out


def test_plan_subcommand(capsys):
    rc = main(
        ["plan", "megatron-22b", "a100:64", "--tp", "8", "--pp", "1",
         "--dp", "8", "--batch", "64", "--tokens", "1e9", "--rate", "2.0"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "zettaFLOP" in out
    assert "$2.0/GPU-hour" in out


def test_plan_infeasible(capsys):
    rc = main(
        ["plan", "megatron-1t", "a100:8", "--tp", "8", "--pp", "1",
         "--dp", "1", "--batch", "8", "--tokens", "1e9"]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().out


def test_v100_and_h200_system_specs(capsys):
    rc = main(
        ["run", "megatron-22b", "v100:64", "--tp", "8", "--pp", "8",
         "--dp", "1", "--batch", "64", "--recompute", "full"]
    )
    assert rc == 0
    assert "v100" in capsys.readouterr().out
    rc = main(
        ["run", "megatron-22b", "h200:64", "--tp", "8", "--pp", "8",
         "--dp", "1", "--batch", "64", "--recompute", "full"]
    )
    assert rc == 0
    assert "h200" in capsys.readouterr().out


def test_sensitivity_subcommand(capsys):
    rc = main(
        ["sensitivity", "megatron-22b", "a100:16", "--tp", "8", "--pp", "2",
         "--batch", "16"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "elasticity" in out
    assert "matrix_flops" in out


def test_sensitivity_infeasible(capsys):
    rc = main(
        ["sensitivity", "megatron-1t", "a100:8", "--tp", "8", "--pp", "1",
         "--batch", "8"]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().out


def test_run_csv_format(capsys):
    rc = main(
        ["run", "megatron-22b", "a100:16", "--tp", "8", "--pp", "2",
         "--batch", "16", "--recompute", "full", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("llm,system,strategy")
    assert "megatron-22b" in out


def test_run_json_format(capsys):
    import json

    rc = main(
        ["run", "megatron-22b", "a100:16", "--tp", "8", "--pp", "2",
         "--batch", "16", "--recompute", "full", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["feasible"] is True
    assert data["time.fw_pass"] > 0


def test_deployments_subcommand(capsys):
    rc = main(["deployments", "megatron-22b", "a100:8", "--prompt", "512",
               "--generate", "64"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "TTFT" in out
    assert "tok/s/GPU" in out


def test_deployments_nothing_fits(capsys):
    rc = main(["deployments", "megatron-1t", "a100:2", "--prompt", "128",
               "--generate", "16"])
    assert rc == 1
    assert "no feasible deployment" in capsys.readouterr().out


def test_calibrate_subcommand(tmp_path, capsys):
    import json

    manifest = [
        {
            "llm": "tiny-test",
            "system": "a100:8",
            "strategy": {
                "tensor_par": 8, "pipeline_par": 1, "data_par": 1,
                "batch": 8, "microbatch": 1, "recompute": "full",
            },
            "measured_time": 0.05,
        }
    ]
    path = tmp_path / "runs.json"
    path.write_text(json.dumps(manifest))
    rc = main(["calibrate", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fitted matrix plateau" in out
    assert "mean abs error" in out


def test_cli_import_leaves_analysis_and_inference_unloaded():
    # Verbs import what only they need, so a cold `repro search` does not
    # pay for the analysis and inference packages.
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, repro.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] in (['repro', 'analysis'], ['repro', 'inference'])))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
