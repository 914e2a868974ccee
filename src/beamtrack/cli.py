"""Command line entry points.

Subcommands:
    calibrate-noise  fit the estimate-noise-vs-SNR table used by generate-data
    generate-data    synthesize a training dataset (.npz)
    train            train a predictor on a dataset and save a checkpoint
    evaluate         run one episode per variant and print mean metrics
    sweep            grid of episodes over one config axis, written as CSV
    plot-data        canned sweeps producing per-figure CSV files

A flat config file (key = value per line, '#' comments) can seed any
subcommand via --config; explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields

import numpy as np

from . import harness, predictor, trackers
from .predictor import DatasetConfig, NoiseTable, TrainConfig


def _angle_rate(text: str) -> float:
    """Float parser accepting a trailing 'pi' multiplier, e.g. '0.4pi'."""
    text = text.strip().lower()
    if text.endswith("pi"):
        head = text[:-2]
        return float(head) * math.pi if head else math.pi
    return float(text)


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    d = harness.SimConfig()
    p.add_argument("--n-b", type=int, default=d.n_b, help="transmit array size")
    p.add_argument("--n-m", type=int, default=d.n_m, help="receive array size")
    p.add_argument("--num-paths", type=int, default=d.num_paths)
    p.add_argument("--m-b", type=int, default=d.m_b, help="pilot beams per cycle (tx)")
    p.add_argument("--m-m", type=int, default=d.m_m, help="pilot beams per cycle (rx)")
    p.add_argument("--codebook-size", type=int, default=d.codebook_size)
    p.add_argument("--t-csi", type=int, default=d.t_csi, help="slots per tracking cycle")
    p.add_argument("--dt", type=float, default=d.dt, help="slot duration in seconds")
    p.add_argument("--k-samples", type=int, default=d.k_samples)
    p.add_argument("--drive-var", type=float, default=d.drive_var,
                   help="velocity drive variance (default: mobility model value)")
    p.add_argument("--init-velocity-std", type=float, default=d.init_velocity_std)
    p.add_argument("--a-avg", type=_angle_rate, default=d.a_avg,
                   help="mean angular rate, accepts e.g. 0.4pi")
    p.add_argument("--snr-db", type=float, default=d.snr_db)
    p.add_argument("--imu-snr-db", type=float, default=d.imu_snr_db)
    p.add_argument("--num-cycles", type=int, default=d.num_cycles)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--init-error-std", type=float, default=d.init_error_std)
    p.add_argument("--lms-step", type=float, default=d.lms_step)
    p.add_argument("--ber-mode", choices=("analytic", "montecarlo"), default=d.ber_mode)


def _one_line(func, *args, **kw):
    """func(*args, **kw), a ValueError from it ending the command with its
    one-line message instead of a traceback."""
    try:
        return func(*args, **kw)
    except ValueError as err:
        raise SystemExit(f"beamtrack: {err}") from None


def _sim_config(args: argparse.Namespace, variant: str = "ekf") -> harness.SimConfig:
    """The SimConfig of the flags `_add_sim_args` defines; fields without a
    flag keep their defaults. A config that SimConfig rejects ends the
    command with its one-line message."""
    given = vars(args)
    return _one_line(
        harness.SimConfig,
        **{f.name: given[f.name] for f in fields(harness.SimConfig) if f.name in given},
        variant=variant,
    )


def _load_models(args, variants) -> dict:
    """One parsed --checkpoint, shared by the proposed variants (inference
    does not modify the model)."""
    needed = [v for v in variants if v.startswith("proposed")]
    if not needed:
        return {}
    if not args.checkpoint:
        raise SystemExit("proposed variants need --checkpoint")
    model = predictor.load_checkpoint(args.checkpoint)
    return {v: model for v in needed}


def _cmd_calibrate_noise(args) -> int:
    cfg = _sim_config(args)
    table = _one_line(
        harness.calibrate_estimate_noise,
        cfg, _float_list(args.snr_grid), episodes_per_point=args.episodes,
        master_seed=args.seed,
    )
    with open(args.out, "w") as fh:
        fh.write(table.to_json())
    print(f"wrote {args.out}: std {np.min(table.estimate_std):.4g}"
          f"..{np.max(table.estimate_std):.4g} over {len(table.snr_db)} SNR points")
    return 0


def _cmd_generate_data(args) -> int:
    cfg = _one_line(
        DatasetConfig,
        num_windows=args.num_windows, cycles_per_episode=args.cycles_per_episode,
        num_paths=args.num_paths, delta=args.delta, k_samples=args.k_samples,
        a_avg_range=(args.a_avg_min, args.a_avg_max),
        snr_range_db=(args.snr_min, args.snr_max), imu_snr_db=args.imu_snr_db,
        include_imu=not args.no_imu,
    )
    if args.noise_table:
        with open(args.noise_table) as fh:
            table = NoiseTable.from_json(fh.read())
    else:
        print("no --noise-table given, running a short calibration", file=sys.stderr)
        cal_cfg = harness.SimConfig(num_cycles=100, seed=args.seed)
        table = harness.calibrate_estimate_noise(cal_cfg, (6.0, 9.0, 12.0, 15.0),
                                                 episodes_per_point=2)
    rng = np.random.default_rng(args.seed)
    data = _one_line(predictor.generate_dataset, cfg, table, rng)
    data.save(args.out)
    print(f"wrote {args.out}: {len(data)} windows of shape {data.inputs.shape[1:]}")
    return 0


def _cmd_train(args) -> int:
    train_cfg = _one_line(
        TrainConfig,
        epochs=args.epochs, minibatch=args.minibatch, initial_lr=args.lr, seed=args.seed,
    )
    data = predictor.Dataset.load(args.dataset)
    meta = data.meta
    model = _one_line(
        predictor.build_model,
        np.random.default_rng(args.seed),
        delta=int(meta["delta"]),
        k_samples=int(meta["k_samples"]),
        lstm_layers=args.lstm_layers,
        lstm_hidden=args.hidden_size,
    )
    model, losses = _one_line(predictor.train, model, data, train_cfg)
    predictor.save_checkpoint(model, args.out)
    print(f"wrote {args.out}: loss {losses[0]:.5g} -> {losses[-1]:.5g} "
          f"over {len(losses)} epochs")
    return 0


def _cmd_evaluate(args) -> int:
    variants = args.variants.split(",")
    configs = [_sim_config(args, variant=variant) for variant in variants]
    models = _load_models(args, variants)
    for cfg in configs:
        _one_line(harness.check_model, models.get(cfg.variant), cfg.variant, cfg.k_samples)
    base = configs[0]
    process_noise = trackers.calibrate_process_noise(
        base.mobility_params(), base.t_csi, num_paths=base.num_paths
    )
    print("variant mean_nmse_db mean_ber")
    for cfg in configs:
        result = harness.run_episode(cfg, models.get(cfg.variant), process_noise)
        print(f"{cfg.variant} {result.mean_nmse_db:.4f} {result.mean_ber:.6g}")
    return 0


def _cmd_sweep(args) -> int:
    variants = args.variants.split(",")
    models = _load_models(args, variants)
    cfg = _sim_config(args)
    rows = _one_line(
        harness.run_sweep, cfg, args.axis, _float_list(args.values), variants, args.trials,
        master_seed=args.master_seed, models=models, out_path=args.out,
    )
    errors = sum(1 for r in rows if r["status"].startswith("error"))
    print(f"wrote {args.out}: {len(rows)} rows ({errors} errors)")
    return 0


def _cmd_plot_data(args) -> int:
    variants = args.variants.split(",")
    models = _load_models(args, variants)
    cfg = _sim_config(args)
    written = _one_line(
        harness.plot_data, args.out_dir, cfg, models=models, variants=variants, trials=args.trials,
        master_seed=args.master_seed,
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beamtrack")
    parser.add_argument("--config", default=None,
                        help="flat key = value file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate-noise", help="fit estimate-noise table")
    _add_sim_args(p)
    p.add_argument("--snr-grid", default="6,9,12,15")
    p.add_argument("--episodes", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_calibrate_noise)

    p = sub.add_parser("generate-data", help="synthesize a training set")
    p.add_argument("--noise-table", default=None)
    p.add_argument("--num-windows", type=int, default=100_000)
    p.add_argument("--cycles-per-episode", type=int, default=200)
    p.add_argument("--num-paths", type=int, default=3)
    p.add_argument("--delta", type=int, default=3)
    p.add_argument("--k-samples", type=int, default=4)
    p.add_argument("--a-avg-min", type=_angle_rate, default=0.05 * math.pi)
    p.add_argument("--a-avg-max", type=_angle_rate, default=0.45 * math.pi)
    p.add_argument("--snr-min", type=float, default=6.0)
    p.add_argument("--snr-max", type=float, default=15.0)
    p.add_argument("--imu-snr-db", type=float, default=None,
                   help="fixed sensor SNR; omit to draw per episode")
    p.add_argument("--no-imu", action="store_true", help="zero the sensor channels")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate_data)

    p = sub.add_parser("train", help="train a predictor")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--minibatch", type=int, default=64)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--lstm-layers", type=int, default=1)
    p.add_argument("--hidden-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score variants on one episode")
    _add_sim_args(p)
    p.add_argument("--variants", default="proposed_csi_imu,ekf")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="grid over one config axis")
    _add_sim_args(p)
    p.add_argument("--axis", required=True, help="SimConfig field name")
    p.add_argument("--values", required=True, help="comma separated axis values")
    p.add_argument("--variants", default="proposed_csi_imu,ekf")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("plot-data", help="write per-figure CSVs")
    _add_sim_args(p)
    p.add_argument("--variants", default="proposed_csi_imu,proposed_csi,ekf,lms")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--master-seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_plot_data)
    return parser


def _inject_config(argv: list[str], command: str, path: str) -> list[str]:
    """Expand the config file at `path` into flags placed just after the
    command, and drop the --config option, spelled `--config FILE` or
    `--config=FILE`.

    Later (explicit) flags override earlier ones under argparse, so anything
    the user typed wins over the file.
    """
    if "--config" in argv:
        idx = argv.index("--config")
        argv = argv[:idx] + argv[idx + 2 :]
    argv = [arg for arg in argv if not arg.startswith("--config=")]
    tokens: list[str] = []
    for key, val in _load_config_file(path).items():
        flag = "--" + key.replace("_", "-")
        if val.lower() in ("true", "yes"):
            tokens.append(flag)
        elif val.lower() in ("false", "no"):
            continue
        else:
            tokens.extend([flag, val])
    pos = argv.index(command)
    return argv[: pos + 1] + tokens + argv[pos + 1 :]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args, _ = parser.parse_known_args(argv)
    if args.config:
        argv = _inject_config(argv, args.command, args.config)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
