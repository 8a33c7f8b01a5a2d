"""Batch-experiment command line: data generation, teacher training,
distillation, ablation sweeps, the spurious-gradient pilot, and the
self-check gate.

Exit codes: 0 ok, 1 property failure, 2 flag validation, 3 missing
input artifact, 4 numeric divergence.  The output root comes from
VRM_RUN_DIR (default ./runs); every run directory carries a manifest
that makes it self-describing.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import AugmentSpec, load_dataset, make_synthetic_dataset, save_dataset
from .diagnostics import PilotSpec, gradient_diffusion_pilot, write_pilot_csv
from .errors import ParameterError, TrainingError
from .losses import VRMWeights
from .models import MLPSpec, load_checkpoint, save_checkpoint
from .training import (
    TrainConfig,
    distill_student,
    train_teacher,
    write_breakdown_csv,
    write_metrics_csv,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_FLAGS = 2
EXIT_MISSING = 3
EXIT_DIVERGED = 4


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def run_root() -> Path:
    return Path(os.environ.get("VRM_RUN_DIR", "./runs"))


def _make_run_dir(command: str, name: str | None) -> Path:
    root = run_root()
    sub = name if name else f"{command}-{time.strftime('%Y%m%d-%H%M%S')}"
    path = root / sub
    path.mkdir(parents=True, exist_ok=True)
    return path


class Manifest:
    """Flat key=value run metadata, written at start and finalized at end."""

    def __init__(self, run_dir: Path, command: str, config: dict):
        self.path = run_dir / "manifest.txt"
        self.fields = {"command": command, "version": __version__,
                       "status": "running", "started_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
        self.fields.update(config)
        self._t0 = time.monotonic()
        self.write()

    def write(self):
        lines = [f"{k}={_fmt(v)}" for k, v in self.fields.items()]
        self.path.write_text("\n".join(lines) + "\n")

    def finalize(self, **extra):
        self.fields.update(extra)
        self.fields["status"] = "complete"
        self.fields["wall_clock_s"] = round(time.monotonic() - self._t0, 3)
        self.write()


def _read_config_file(path: Path) -> dict:
    values = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"bad config line: {raw!r}")
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


# defaults shared by distill/ablate; CLI flags override config-file values
_TRAIN_DEFAULTS = {
    "objective": "vrm",
    "alpha": 128.0,
    "beta": 32.0,
    "tau": 4.0,
    "delta": 1.0,
    "uep": 95.0,
    "n_ops": 2,
    "magnitude": 0.3,
    "lr": 0.05,
    "momentum": 0.9,
    "weight_decay": 5e-4,
    "lr_decay": 0.1,
    "milestones": "30,40,50",
    "batch_size": 32,
    "epochs": 60,
    "seed": 0,
    "im_kd_weight": 1.0,
    "widths": "",
}

_CASTS = {
    "alpha": float, "beta": float, "tau": float, "delta": float, "uep": float,
    "n_ops": int, "magnitude": float, "lr": float, "momentum": float,
    "weight_decay": float, "lr_decay": float, "batch_size": int, "epochs": int,
    "seed": int, "im_kd_weight": float,
}


def _effective(args, keys) -> dict:
    """Merge defaults < config file < explicit flags."""
    merged = {k: _TRAIN_DEFAULTS[k] for k in keys}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        for key, val in _read_config_file(path).items():
            if key not in _TRAIN_DEFAULTS:
                raise ParameterError(f"unknown config key {key!r}")
            if key in keys:
                merged[key] = _CASTS.get(key, str)(val)
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in str(text).split(",") if tok != ""]


def _train_config(cfg: dict) -> TrainConfig:
    weights = VRMWeights(alpha=cfg["alpha"], beta=cfg["beta"], tau=cfg["tau"],
                         huber_delta=cfg["delta"], uep_percentile=cfg["uep"])
    augment = AugmentSpec(n_ops=cfg["n_ops"], magnitude=cfg["magnitude"],
                          seed=cfg["seed"])
    return TrainConfig(
        weights=weights, augment=augment, lr=cfg["lr"], momentum=cfg["momentum"],
        weight_decay=cfg["weight_decay"], lr_decay=cfg["lr_decay"],
        milestones=tuple(_parse_int_list(cfg["milestones"])),
        batch_size=cfg["batch_size"], epochs=cfg["epochs"], seed=cfg["seed"],
        im_kd_weight=cfg["im_kd_weight"])


# -- commands --------------------------------------------------------------


def cmd_gen_data(args, parser) -> int:
    if args.classes < 2:
        parser.error("need >= 2 classes")
    if args.per_class < 10:
        parser.error("need >= 10 points per class")
    data = make_synthetic_dataset(args.kind, args.classes, args.dim,
                                  args.per_class, args.noise, args.seed)
    out = Path(args.out)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        save_dataset(data, out)
    except OSError as exc:
        # an unwritable output is a bad --out, whatever errno the OS picks
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    print(f"wrote {out} ({data.inputs.shape[0]} samples, dim {data.dim}, "
          f"{data.n_classes} classes)")
    return EXIT_OK


def cmd_train_teacher(args, parser) -> int:
    data_path = Path(args.data)
    if not data_path.exists():
        print(f"error: dataset not found: {data_path}", file=sys.stderr)
        return EXIT_MISSING
    data = load_dataset(data_path)
    cfg = _effective(args, ["lr", "momentum", "weight_decay", "lr_decay",
                            "milestones", "batch_size", "epochs", "seed",
                            "alpha", "beta", "tau", "delta", "uep",
                            "n_ops", "magnitude", "im_kd_weight"])
    widths = _parse_int_list(args.widths) if args.widths else [data.dim, 64, 64, data.n_classes]
    spec = MLPSpec(widths, args.activation, cfg["seed"])
    config = _train_config(cfg)

    run_dir = _make_run_dir("train-teacher", args.name)
    manifest = Manifest(run_dir, "train-teacher", {
        "data": str(data_path), "widths": ",".join(map(str, widths)),
        "activation": args.activation, **cfg})
    try:
        model, records = train_teacher(spec, data, config)
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        manifest.finalize(status="diverged", epoch=exc.epoch)
        return EXIT_DIVERGED
    write_metrics_csv(records, run_dir / "metrics.csv")
    ckpt = run_dir / "teacher.ckpt"
    save_checkpoint(model, ckpt, epoch=config.epochs)
    manifest.finalize(checkpoint=str(ckpt), metrics=str(run_dir / "metrics.csv"),
                      final_val_acc=records[-1].val_acc)
    print(f"teacher val acc {records[-1].val_acc:.4f} -> {ckpt}")
    return EXIT_OK


def _run_distill_cell(data, teacher, cfg: dict, objective: str, run_dir: Path | None):
    config = _train_config(cfg)
    widths = (_parse_int_list(cfg["widths"]) if cfg.get("widths")
              else [data.dim, 32, data.n_classes])
    spec = MLPSpec(widths, "relu", cfg["seed"])
    student, records = distill_student(spec, teacher, data, config, objective)
    if run_dir is not None:
        write_metrics_csv(records, run_dir / "metrics.csv")
        write_breakdown_csv(records, run_dir / "breakdown.csv")
        save_checkpoint(student, run_dir / "student.ckpt", epoch=config.epochs)
    return student, records


def cmd_distill(args, parser) -> int:
    data_path = Path(args.data)
    if not data_path.exists():
        print(f"error: dataset not found: {data_path}", file=sys.stderr)
        return EXIT_MISSING
    teacher_path = Path(args.teacher) if args.teacher else None
    cfg = _effective(args, list(_TRAIN_DEFAULTS))
    objective = cfg["objective"]
    if objective not in ("vrm", "im_kd", "ce_only", "gram", "angular"):
        parser.error(f"unknown objective {objective!r}")

    teacher = None
    if objective != "ce_only":
        if teacher_path is None or not teacher_path.exists():
            print(f"error: teacher checkpoint not found: {teacher_path}", file=sys.stderr)
            return EXIT_MISSING
        teacher, _ = load_checkpoint(teacher_path)

    data = load_dataset(data_path)
    run_dir = _make_run_dir("distill", args.name)
    manifest = Manifest(run_dir, "distill", {
        "data": str(data_path), "teacher": str(teacher_path), **cfg})
    try:
        _, records = _run_distill_cell(data, teacher, cfg, objective, run_dir)
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        manifest.finalize(status="diverged", epoch=exc.epoch)
        return EXIT_DIVERGED
    manifest.finalize(final_val_acc=records[-1].val_acc,
                      metrics=str(run_dir / "metrics.csv"),
                      breakdown=str(run_dir / "breakdown.csv"),
                      checkpoint=str(run_dir / "student.ckpt"))
    print(f"{objective} val acc {records[-1].val_acc:.4f} -> {run_dir}")
    return EXIT_OK


def cmd_ablate(args, parser) -> int:
    data_path = Path(args.data)
    if not data_path.exists():
        print(f"error: dataset not found: {data_path}", file=sys.stderr)
        return EXIT_MISSING
    teacher_path = Path(args.teacher)
    if not teacher_path.exists():
        print(f"error: teacher checkpoint not found: {teacher_path}", file=sys.stderr)
        return EXIT_MISSING

    objectives = [tok for tok in args.objectives.split(",") if tok]
    seeds = _parse_int_list(args.seeds)
    alphas = [float(t) for t in args.alphas.split(",") if t] if args.alphas else [None]
    if not objectives or not seeds:
        parser.error("empty sweep grid")
    for obj in objectives:
        if obj not in ("vrm", "im_kd", "ce_only", "gram", "angular"):
            parser.error(f"unknown objective {obj!r}")

    cfg_base = _effective(args, list(_TRAIN_DEFAULTS))
    data = load_dataset(data_path)
    teacher, _ = load_checkpoint(teacher_path)
    run_dir = _make_run_dir("ablate", args.name)
    manifest = Manifest(run_dir, "ablate", {
        "data": str(data_path), "teacher": str(teacher_path),
        "objectives": args.objectives, "sweep_seeds": args.seeds,
        "alphas": args.alphas or "", **cfg_base})

    rows = []
    for obj in objectives:
        for alpha in alphas:
            for seed in seeds:
                cfg = dict(cfg_base)
                cfg["seed"] = seed
                if alpha is not None:
                    cfg["alpha"] = alpha
                try:
                    _, records = _run_distill_cell(
                        data, None if obj == "ce_only" else teacher, cfg, obj, None)
                except TrainingError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    manifest.finalize(status="diverged", epoch=exc.epoch)
                    return EXIT_DIVERGED
                final = records[-1]
                rows.append({
                    "objective": obj, "seed": seed,
                    "alpha": cfg["alpha"], "beta": cfg["beta"],
                    "tau": cfg["tau"], "uep": cfg["uep"],
                    "final_val_acc": final.val_acc,
                    "final_train_acc": final.train_acc,
                    "train_val_gap": final.train_acc - final.val_acc,
                })
                print(f"  {obj} seed={seed} alpha={cfg['alpha']} "
                      f"val={final.val_acc:.4f}")

    summary = run_dir / "summary.csv"
    with open(summary, "w", newline="\n") as fh:
        writer = csv.writer(fh)
        header = list(rows[0])
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in header])
    manifest.finalize(summary=str(summary), cells=len(rows))
    print(f"{len(rows)} cells -> {summary}")
    return EXIT_OK


def cmd_pilot(args, parser) -> int:
    if not 0 <= args.spurious_index < args.batch:
        parser.error("spurious index must lie in [0, batch)")
    kinds = [k.strip().upper() for k in args.loss_kinds.split(",") if k]
    for kind in kinds:
        if kind not in ("IM", "RM", "RM_GRAM"):
            parser.error(f"unknown loss kind {kind!r}")
    run_dir = _make_run_dir("pilot", args.name)
    manifest = Manifest(run_dir, "pilot", {
        "batch": args.batch, "dim": args.dim, "spurious_index": args.spurious_index,
        "noise_scale": args.noise_scale, "n_seeds": args.seeds,
        "loss_kinds": ",".join(kinds)})

    medians = {}
    for kind in kinds:
        per_seed = []
        for seed in range(args.seeds):
            spec = PilotSpec(args.batch, args.dim, args.spurious_index,
                             args.noise_scale, seed, kind)
            dg = gradient_diffusion_pilot(spec)
            write_pilot_csv(dg, args.spurious_index,
                            run_dir / f"pilot_{kind.lower()}_seed{seed}.csv")
            per_seed.append(float(np.median(np.abs(np.delete(dg, args.spurious_index)))))
        medians[kind] = float(np.median(per_seed))

    with open(run_dir / "summary.csv", "w", newline="\n") as fh:
        writer = csv.writer(fh)
        writer.writerow(["loss_kind", "median_offtarget_abs_delta_g"])
        for kind in kinds:
            writer.writerow([kind, _fmt(medians[kind])])
        if "IM" in medians and "RM" in medians:
            ratio = medians["RM"] / max(medians["IM"], 1e-300)
            writer.writerow(["RM_over_IM_ratio", _fmt(ratio)])
    manifest.finalize(summary=str(run_dir / "summary.csv"))
    for kind in kinds:
        print(f"{kind}: median off-target |delta_g| = {medians[kind]:.3e}")
    return EXIT_OK


def cmd_check(args, parser) -> int:
    from .checks import run_all_checks

    results = run_all_checks(quick=args.quick)
    failures = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    if failures:
        print(f"{len(failures)} properties failed: "
              + ", ".join(r.name for r in failures), file=sys.stderr)
        return EXIT_PROPERTY
    print(f"all {len(results)} properties passed")
    return EXIT_OK


# -- parser ----------------------------------------------------------------


def _add_train_flags(p: argparse.ArgumentParser, with_objective: bool):
    if with_objective:
        p.add_argument("--objective", choices=["vrm", "im_kd", "ce_only", "gram", "angular"])
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--uep", type=float, help="retention percentile, 100 disables pruning")
    p.add_argument("--n-ops", dest="n_ops", type=int)
    p.add_argument("--magnitude", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--lr-decay", dest="lr_decay", type=float)
    p.add_argument("--milestones")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--im-kd-weight", dest="im_kd_weight", type=float)
    p.add_argument("--widths", help="comma-separated layer widths")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--name", help="run directory name under VRM_RUN_DIR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vrm", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p.add_argument("--kind", choices=["blobs", "spirals"], required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--per-class", dest="per_class", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-teacher", help="label-only teacher pretraining")
    p.add_argument("--data", required=True)
    p.add_argument("--activation", choices=["relu", "tanh"], default="relu")
    _add_train_flags(p, with_objective=False)
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("distill", help="train a student against a frozen teacher")
    p.add_argument("--data", required=True)
    p.add_argument("--teacher")
    _add_train_flags(p, with_objective=True)
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("ablate", help="sweep objectives/hyperparameters")
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--objectives", default="vrm,gram,ce_only")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--alphas", help="optional alpha grid")
    _add_train_flags(p, with_objective=False)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("pilot", help="spurious-gradient diffusion study")
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--spurious-index", dest="spurious_index", type=int, default=32)
    p.add_argument("--noise-scale", dest="noise_scale", type=float, default=1.0)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--loss-kinds", dest="loss_kinds", default="im,rm")
    p.add_argument("--name")
    p.set_defaults(func=cmd_pilot)

    p = sub.add_parser("check", help="run gradient and oracle verification suites")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAGS


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
