"""Command-line entry points, argument plumbing, and config files."""

import argparse
import csv
import json
import math

import numpy as np
import pytest

from beamtrack import harness, predictor, trackers
from beamtrack.cli import (
    _angle_rate,
    _float_list,
    _inject_config,
    _load_config_file,
    _sim_config,
    build_parser,
    main,
)
from beamtrack.predictor import (
    NoiseTable,
    NormStats,
    build_model,
    load_checkpoint,
    save_checkpoint,
)


def test_angle_rate_parser():
    assert _angle_rate("0.4pi") == pytest.approx(0.4 * math.pi)
    assert _angle_rate("pi") == pytest.approx(math.pi)
    assert _angle_rate("-0.5PI") == pytest.approx(-0.5 * math.pi)
    assert _angle_rate("2.5") == 2.5
    with pytest.raises(ValueError):
        _angle_rate("fast")


def test_float_list():
    assert _float_list("1,2.5, 3") == [1.0, 2.5, 3.0]
    assert _float_list("6,") == [6.0]


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "snr-db = 3\n"
        "num_cycles=7   # trailing comment\n"
        "\n"
        "variant = genie\n"
    )
    values = _load_config_file(path)
    assert values == {"snr_db": "3", "num_cycles": "7", "variant": "genie"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("snr-db 3\n")
    with pytest.raises(ValueError, match="bad config line"):
        _load_config_file(bad)


def test_config_injection_explicit_flags_win(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("snr-db = 3\nnum-cycles = 4\n")
    parser = build_parser()

    argv = ["--config", str(path), "evaluate"]
    merged = _inject_config(argv, "evaluate", str(path))
    args = parser.parse_args(merged)
    assert args.snr_db == 3.0 and args.num_cycles == 4

    override = _inject_config(
        ["--config", str(path), "evaluate", "--snr-db", "12"], "evaluate", str(path)
    )
    args = parser.parse_args(override)
    assert args.snr_db == 12.0  # typed flag beats the file
    assert args.num_cycles == 4  # untouched file entry still applies


@pytest.mark.parametrize("spelling", ["separate", "equals"])
def test_config_file_applies_in_either_spelling(spelling, tmp_path, monkeypatch, count_calls):
    path = tmp_path / "run.cfg"
    path.write_text("num-cycles = 3\n")
    option = ["--config", str(path)] if spelling == "separate" else [f"--config={path}"]
    monkeypatch.setattr(trackers, "calibrate_process_noise", lambda *a, **kw: 1e-5)
    calls = count_calls(harness, "run_episode")
    assert main([*option, "evaluate", "--variants", "genie", "--t-csi", "40"]) == 0
    assert [cfg.num_cycles for cfg, *_ in calls] == [3]


# The arguments each subcommand that takes the sim flags requires.
_SIM_SUBCOMMANDS = {
    "calibrate-noise": ["--out", "table.json"],
    "evaluate": [],
    "sweep": ["--axis", "snr_db", "--values", "9", "--out", "sweep.csv"],
    "plot-data": ["--out-dir", "figs"],
}


def test_sim_flag_defaults_give_the_default_sim_config():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    with_sim_flags = {
        name for name, p in sub.choices.items() if "--n-b" in p._option_string_actions
    }
    assert with_sim_flags == set(_SIM_SUBCOMMANDS)
    default = harness.SimConfig()
    for command, required in _SIM_SUBCOMMANDS.items():
        args = parser.parse_args([command, *required])
        assert _sim_config(args, variant=default.variant) == default, command


@pytest.mark.parametrize("command", sorted(_SIM_SUBCOMMANDS))
def test_sim_subcommands_reject_delta(command, tmp_path, monkeypatch, capsys):
    # The window length belongs to the model; only generate-data takes --delta.
    monkeypatch.chdir(tmp_path)
    argv = [command, *_SIM_SUBCOMMANDS[command], "--num-cycles", "2", "--t-csi", "40"]
    with pytest.raises(SystemExit) as flag:
        main([*argv, "--delta", "9"])
    assert flag.value.code == 2
    assert "--delta" in capsys.readouterr().err
    (tmp_path / "run.cfg").write_text("delta = 9\n")
    with pytest.raises(SystemExit) as from_file:
        main(["--config", "run.cfg", *argv])
    assert from_file.value.code == 2


def test_cli_generate_data_delta_sets_the_window_length(tmp_path, capsys):
    table_path = tmp_path / "noise.json"
    table_path.write_text(NoiseTable(snr_db=[0.0], estimate_std=[0.01]).to_json())
    data_path = tmp_path / "train.npz"
    rc = main([
        "generate-data", "--noise-table", str(table_path), "--num-windows", "50",
        "--cycles-per-episode", "20", "--delta", "4", "--seed", "1", "--out", str(data_path),
    ])
    assert rc == 0
    data = predictor.Dataset.load(data_path)
    assert data.inputs.shape == (50, 4, 9)
    assert data.meta["delta"] == 4


def test_cli_requires_a_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_evaluate_prints_metrics(capsys):
    rc = main([
        "evaluate", "--variants", "genie,ekf", "--num-cycles", "2",
        "--t-csi", "40", "--seed", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "variant mean_nmse_db mean_ber"
    assert out[1].startswith("genie ") and out[2].startswith("ekf ")
    assert float(out[1].split()[1]) == -100.0


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--axis", "snr_db", "--values", "6,9", "--variants", "genie",
        "--trials", "1", "--num-cycles", "2", "--t-csi", "40", "--out", str(out),
    ])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 values x (1 trial + 1 mean)
    assert {r["axis_name"] for r in rows} == {"snr_db"}


def test_cli_calibrate_noise_writes_table(tmp_path, capsys):
    out = tmp_path / "noise.json"
    rc = main([
        "calibrate-noise", "--snr-grid", "6,9", "--episodes", "1",
        "--num-cycles", "12", "--t-csi", "40", "--out", str(out),
    ])
    assert rc == 0
    table = NoiseTable.from_json(out.read_text())
    np.testing.assert_array_equal(table.snr_db, [6.0, 9.0])
    assert np.all(table.estimate_std > 0)


@pytest.mark.parametrize("flags, message", [
    (["--num-cycles", "5"], "skip_cycles=10 skips all 5 cycles"),
    (["--episodes", "0"], "episodes_per_point must be >= 1, got 0"),
    (["--snr-grid", ""], "the SNR grid is empty"),
], ids=["short_episodes", "no_episodes", "empty_grid"])
def test_cli_calibrate_noise_refuses_bad_input_in_one_line(flags, message, tmp_path, capsys):
    out = tmp_path / "noise.json"
    with pytest.raises(SystemExit) as refused:
        main(["calibrate-noise", "--t-csi", "40", "--out", str(out)] + flags)
    assert refused.value.code == f"beamtrack: {message}"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "plot-data", "evaluate"])
def test_cli_refuses_an_unknown_variant_before_any_work(command, tmp_path, count_calls, capsys):
    calls = count_calls(trackers, "calibrate_process_noise")
    count_calls(harness, "calibrate_process_noise", calls)
    count_calls(harness, "run_episodes", calls)
    own = {
        "sweep": ["--trials", "1", "--axis", "snr_db", "--values", "9",
                  "--out", str(tmp_path / "s.csv")],
        "plot-data": ["--trials", "1", "--out-dir", str(tmp_path / "figs")],
        "evaluate": [],
    }[command]
    with pytest.raises(SystemExit) as refused:
        main([command, "--variants", "ekf,bogus", "--num-cycles", "3", "--t-csi", "40"] + own)
    message = refused.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith("beamtrack: ") and "'bogus'" in message
    assert calls == []
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_proposed_needs_checkpoint(tmp_path):
    with pytest.raises(SystemExit, match="checkpoint"):
        main([
            "evaluate", "--variants", "proposed_csi_imu", "--num-cycles", "2",
            "--t-csi", "40",
        ])


def test_cli_pipeline_data_train_evaluate(tmp_path, capsys):
    # generate-data -> train -> evaluate with the trained checkpoint.
    table_path = tmp_path / "noise.json"
    table_path.write_text(
        NoiseTable(snr_db=[0.0, 20.0], estimate_std=[0.05, 0.005]).to_json()
    )
    data_path = tmp_path / "train.npz"
    rc = main([
        "generate-data", "--noise-table", str(table_path), "--num-windows", "400",
        "--cycles-per-episode", "30", "--seed", "1", "--out", str(data_path),
    ])
    assert rc == 0 and data_path.exists()

    ckpt_path = tmp_path / "model.ckpt"
    rc = main([
        "train", "--dataset", str(data_path), "--epochs", "2", "--seed", "0",
        "--out", str(ckpt_path),
    ])
    assert rc == 0
    model = load_checkpoint(ckpt_path)
    assert model.delta == 3 and model.k_samples == 4

    capsys.readouterr()  # drop the generation/training progress lines
    rc = main([
        "evaluate", "--variants", "proposed_csi_imu,proposed_csi", "--num-cycles",
        "4", "--t-csi", "40", "--checkpoint", str(ckpt_path), "--seed", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    for line in out[1:]:
        nmse = float(line.split()[1])
        assert math.isfinite(nmse)


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "0"], "epochs must be >= 1, got 0"),
    (["--minibatch", "0"], "minibatch must be >= 1, got 0"),
    (["--lr", "-1"], "initial_lr must be positive and finite, got -1.0"),
    (["--hidden-size", "0"], "lstm_hidden must be >= 1, got 0"),
    (["--lstm-layers", "0"], "lstm_layers must be >= 1, got 0"),
], ids=["epochs", "minibatch", "lr", "hidden_size", "lstm_layers"])
def test_cli_train_refuses_bad_sizes_in_one_line(flags, message, tmp_path, count_calls, capsys):
    data_path = tmp_path / "train.npz"
    predictor.generate_dataset(
        predictor.DatasetConfig(num_windows=20, cycles_per_episode=20),
        NoiseTable(snr_db=[0.0], estimate_std=[0.01]), np.random.default_rng(0),
    ).save(data_path)
    calls = count_calls(predictor, "train")
    out = tmp_path / "model.ckpt"
    with pytest.raises(SystemExit) as refused:
        main(["train", "--dataset", str(data_path), "--out", str(out)] + flags)
    assert refused.value.code == f"beamtrack: {message}"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--num-windows", "0"], "num_windows must be >= 1, got 0", id="--num-windows"),
    pytest.param(["--num-paths", "0"], "num_paths must be >= 1, got 0", id="--num-paths"),
    pytest.param(
        ["--cycles-per-episode", "3", "--num-windows", "10"],
        "cycles_per_episode must exceed delta (3), got 3", id="--cycles-per-episode",
    ),
])
def test_cli_generate_data_refuses_an_empty_dataset_before_calibrating(
    flags, message, tmp_path, count_calls, capsys
):
    # Without --noise-table the command calibrates first; the refusal comes
    # before that, in one line, and writes no file.
    calls = count_calls(harness, "calibrate_estimate_noise")
    out = tmp_path / "train.npz"
    with pytest.raises(SystemExit) as refused:
        main(["generate-data", *flags, "--out", str(out)])
    assert refused.value.code == f"beamtrack: {message}"
    assert calls == []
    assert list(tmp_path.iterdir()) == []
    assert "calibration" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "plot-data"])
def test_cli_refuses_zero_trials_before_any_work(command, tmp_path, count_calls, capsys):
    calls = count_calls(trackers, "calibrate_process_noise")
    count_calls(harness, "calibrate_process_noise", calls)
    own = {
        "sweep": ["--axis", "snr_db", "--values", "9", "--out", str(tmp_path / "s.csv")],
        "plot-data": ["--out-dir", str(tmp_path / "figs")],
    }[command]
    with pytest.raises(SystemExit) as refused:
        main([command, "--variants", "ekf", "--trials", "0", "--num-cycles", "3"] + own)
    assert refused.value.code == "beamtrack: trials must be >= 1, got 0"
    assert calls == []
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_generate_data_reports_the_window_shape(tmp_path, capsys):
    # Each window is (delta cycles, per-cycle features): 3 x (1 angle + 4
    # samples x 2 sensor channels). The state itself is one angle per path.
    table_path = tmp_path / "noise.json"
    table_path.write_text(NoiseTable(snr_db=[0.0], estimate_std=[0.01]).to_json())
    data_path = tmp_path / "train.npz"
    rc = main([
        "generate-data", "--noise-table", str(table_path), "--num-windows", "50",
        "--cycles-per-episode", "20", "--seed", "1", "--out", str(data_path),
    ])
    assert rc == 0
    assert predictor.Dataset.load(data_path).inputs.shape == (50, 3, 9)
    out = capsys.readouterr().out.strip().splitlines()
    assert out == [f"wrote {data_path}: 50 windows of shape (3, 9)"]


def test_cli_plot_data(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    rc = main([
        "plot-data", "--variants", "genie", "--trials", "1", "--num-cycles", "2",
        "--t-csi", "40", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "ber_vs_snr.csv", "nmse_vs_a_avg.csv", "nmse_vs_snr.csv", "nmse_vs_t_csi.csv",
    ]


def test_cli_evaluate_calibrates_once_and_prints_the_same_lines(count_calls, capsys):
    # Expected lines: each variant's episode calibrating its own process noise.
    variants = ("genie", "ekf", "lms")
    expected = ["variant mean_nmse_db mean_ber"]
    for variant in variants:
        cfg = harness.SimConfig(num_cycles=3, t_csi=40, seed=4, variant=variant)
        result = harness.run_episode(cfg)
        expected.append(f"{variant} {result.mean_nmse_db:.4f} {result.mean_ber:.6g}")

    calls = count_calls(trackers, "calibrate_process_noise")
    count_calls(harness, "calibrate_process_noise", calls)
    rc = main([
        "evaluate", "--variants", ",".join(variants), "--num-cycles", "3",
        "--t-csi", "40", "--seed", "4",
    ])
    assert rc == 0
    assert capsys.readouterr().out.strip().splitlines() == expected
    assert len(calls) == 1


def test_cli_refuses_a_receive_search_over_the_cap_before_calibrating(count_calls, capsys):
    # 5 of 64 receive beams passes the subset cap: the command ends with the
    # config's one-line message before the 2000-cycle calibration runs.
    calls = count_calls(trackers, "calibrate_process_noise")
    count_calls(harness, "calibrate_process_noise", calls)
    with pytest.raises(SystemExit) as refused:
        main(["evaluate", "--variants", "ekf,genie", "--num-cycles", "5", "--m-m", "5"])
    message = refused.value.code
    assert isinstance(message, str) and "\n" not in message
    assert "m_m=5 of 64 beams is 7624512 receive subsets" in message
    assert len(calls) == 0


@pytest.mark.parametrize("command", ["sweep", "plot-data", "evaluate"])
def test_cli_refuses_a_model_with_other_k_samples_before_any_work(
    command, tmp_path, count_calls, capsys
):
    # The checkpoint's model takes 4 sensor samples per cycle; k_samples=8
    # ends the command with one line naming both counts, before calibration,
    # any episode or any output.
    ckpt = tmp_path / "model.ckpt"
    model = build_model(np.random.default_rng(0))
    model.norm = NormStats(np.zeros(9), np.ones(9), np.zeros(1), np.ones(1))
    save_checkpoint(model, ckpt)
    calls = count_calls(trackers, "calibrate_process_noise")
    count_calls(harness, "calibrate_process_noise", calls)
    count_calls(harness, "run_episodes", calls)
    own = {
        "sweep": ["--trials", "1", "--axis", "snr_db", "--values", "9",
                  "--out", str(tmp_path / "s.csv")],
        "plot-data": ["--trials", "1", "--out-dir", str(tmp_path / "figs")],
        "evaluate": [],
    }[command]
    with pytest.raises(SystemExit) as refused:
        main([
            command, "--variants", "ekf,proposed_csi_imu", "--num-cycles", "3",
            "--t-csi", "40", "--k-samples", "8", "--checkpoint", str(ckpt),
        ] + own)
    message = refused.value.code
    assert isinstance(message, str) and "\n" not in message
    assert "k_samples=4" in message and "k_samples=8" in message
    assert calls == []
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == [ckpt]


def test_cli_plot_data_parses_the_checkpoint_once(tmp_path, monkeypatch, count_calls, capsys):
    ckpt = tmp_path / "model.ckpt"
    model = build_model(np.random.default_rng(0))
    model.norm = NormStats(np.zeros(9), np.ones(9), np.zeros(1), np.ones(1))
    save_checkpoint(model, ckpt)
    # A constant process noise keeps the sweeps short; this test is about parsing.
    monkeypatch.setattr(harness, "calibrate_process_noise", lambda *a, **kw: 1e-5)
    calls = count_calls(predictor, "load_checkpoint")
    rc = main([
        "plot-data", "--variants", "proposed_csi_imu,proposed_csi", "--trials", "1",
        "--num-cycles", "1", "--t-csi", "40", "--checkpoint", str(ckpt),
        "--out-dir", str(tmp_path / "figs"),
    ])
    assert rc == 0
    assert len(calls) == 1
