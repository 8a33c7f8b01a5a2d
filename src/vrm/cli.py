"""Batch-experiment command line: data generation, teacher training,
distillation, ablation sweeps, the spurious-gradient pilot, and the
self-check gate.

Exit codes: 0 ok, 1 property failure, 2 a bad flag or an unwritable
output, 3 a missing, unreadable, corrupt or mismatched input artifact,
4 numeric divergence, 5 the teacher worker of a distillation died,
129 SIGHUP, 130 SIGINT, 143 SIGTERM.  The output root comes from
VRM_RUN_DIR (default ./runs); every run directory carries a manifest
that makes it self-describing.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import signal
import sys
import threading
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import (AugmentSpec, Dataset, load_dataset, make_synthetic_dataset, read_input,
                   save_dataset, write_whole)
from .diagnostics import PilotSpec, gradient_diffusion_pilot, write_pilot_csv
from .errors import InputError, ParameterError, TrainingError, WorkerError
from .losses import VRMWeights
from .models import MLP, MLPSpec, load_checkpoint, save_checkpoint
from .training import (
    OBJECTIVES,
    TrainConfig,
    _fmt,
    check_objective,
    distill_student,
    train_teacher,
    write_breakdown_csv,
    write_csv,
    write_metrics_csv,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_FLAGS = 2
EXIT_MISSING = 3
EXIT_DIVERGED = 4
EXIT_WORKER = 5

# exception -> exit code, first match wins.  Input files are read through
# data.read_input, which raises InputError, so an OSError that gets here
# comes from the output side
_EXIT_CODES = (
    (TrainingError, EXIT_DIVERGED),
    (WorkerError, EXIT_WORKER),
    (InputError, EXIT_MISSING),
    (ParameterError, EXIT_FLAGS),
    (OSError, EXIT_FLAGS),
)


class Terminated(BaseException):
    """SIGTERM or SIGHUP, ``signum``, arrived while a run was open.  Like
    KeyboardInterrupt for SIGINT, it unwinds through the run's exit, past
    ``except Exception``."""

    def __init__(self, signum):
        super().__init__(signum)
        self.signum = signum


def _raise_terminated(signum, frame):
    raise Terminated(signum)


# the signals that end an open run as Terminated
_RUN_SIGNALS = (signal.SIGTERM, signal.SIGHUP)


# the files each command's run writes beside its manifest, as glob patterns
_RUN_OUTPUTS = {
    "train-teacher": ("metrics.csv", "teacher.ckpt"),
    "distill": ("metrics.csv", "breakdown.csv", "student.ckpt"),
    "ablate": ("summary.csv",),
    "pilot": ("summary.csv", "pilot_*_seed*.csv"),
}


class Run:
    """A command's run directory under VRM_RUN_DIR and its flat key=value
    manifest.  Entering creates both, at status=running; leaving ends the
    run ``complete``, or ``diverged`` (a TrainingError) or ``failed`` with
    ``error_class`` when an exception escapes, which then propagates.
    While the run is open SIGTERM and SIGHUP raise Terminated, so a killed
    run ends ``failed`` too; the earlier handlers come back on leaving.
    A ``--name`` must be one directory name, so the run stays under the root.
    A run given a ``--name`` used before removes the files its command
    writes there (``_RUN_OUTPUTS``) before its manifest says running, so
    none of them outlives the run that wrote it.  Without a name the run
    creates ``<command>-<time>``, suffixed ``-2``, ``-3``, ... while a run
    of the same second holds the name."""

    def __init__(self, args, config: dict):
        self._outputs = _RUN_OUTPUTS[args.command]
        self._fresh = args.name is None
        name = f"{args.command}-{time.strftime('%Y%m%d-%H%M%S')}" if self._fresh else args.name
        if name in ("", ".", "..") or Path(name).name != name:
            raise ParameterError(f"--name {name!r} must be a single directory name")
        self.dir = Path(os.environ.get("VRM_RUN_DIR", "./runs")) / name
        self.fields = {"command": args.command, "version": __version__, "status": "running",
                       "started_at": time.strftime("%Y-%m-%dT%H:%M:%S"), **config}

    def __enter__(self):
        base = self.dir
        for n in itertools.count(2):
            try:
                self.dir.mkdir(parents=True, exist_ok=not self._fresh)
                break
            except FileExistsError:
                if not self._fresh:
                    raise
                self.dir = base.with_name(f"{base.name}-{n}")
        for pattern in self._outputs:
            for path in self.dir.glob(pattern):
                # a directory is none of the run's files; writing there fails the run
                if not path.is_dir():
                    path.unlink()
        self._t0 = time.monotonic()
        self._write()
        # only the main thread may set a handler; a run on another thread keeps the process's
        self._earlier = ({signum: signal.signal(signum, _raise_terminated)
                          for signum in _RUN_SIGNALS}
                         if threading.current_thread() is threading.main_thread() else {})
        return self

    def __exit__(self, exc_type, exc, tb):
        for signum, handler in self._earlier.items():
            signal.signal(signum, handler)
        if exc_type is None:
            self.fields["status"] = "complete"
        elif isinstance(exc, TrainingError):
            self.fields.update(status="diverged", epoch=exc.epoch, error_class=exc_type.__name__)
        else:
            self.fields.update(status="failed", error_class=exc_type.__name__)
        self.fields["wall_clock_s"] = round(time.monotonic() - self._t0, 3)
        self._write()

    def _write(self):
        lines = [f"{k}={_fmt(v)}" for k, v in self.fields.items()]
        write_whole(self.dir / "manifest.txt", ("\n".join(lines) + "\n").encode())


# CLI key -> (dataclass, field): the key's default and type are the field's
_TRAIN_KEYS = {
    "alpha": (VRMWeights, "alpha"),
    "beta": (VRMWeights, "beta"),
    "tau": (VRMWeights, "tau"),
    "delta": (VRMWeights, "huber_delta"),
    "uep": (VRMWeights, "uep_percentile"),
    "n_ops": (AugmentSpec, "n_ops"),
    "magnitude": (AugmentSpec, "magnitude"),
    "lr": (TrainConfig, "lr"),
    "momentum": (TrainConfig, "momentum"),
    "weight_decay": (TrainConfig, "weight_decay"),
    "lr_decay": (TrainConfig, "lr_decay"),
    "milestones": (TrainConfig, "milestones"),
    "batch_size": (TrainConfig, "batch_size"),
    "epochs": (TrainConfig, "epochs"),
    "seed": (TrainConfig, "seed"),
    "im_kd_weight": (TrainConfig, "im_kd_weight"),
}

# field -> the flag that sets it, per command: main() puts the flag in place
# of the field a ParameterError starts with
_TRAIN_FLAGS = {name: "--" + key.replace("_", "-") for key, (_, name) in _TRAIN_KEYS.items()}
_TRAIN_FLAGS.update(layer_widths="--widths", objective="--objective")
_PILOT_FLAGS = {"B": "--batch", "D": "--dim", "t": "--spurious-index", "c": "--noise-scale",
                "loss_kind": "--loss-kinds"}
_GEN_DATA_FLAGS = {"n_classes": "--classes", "dim": "--dim", "n_per_class": "--per-class",
                   "noise": "--noise", "seed": "--seed"}

_HELP = {"uep": "retention percentile, 100 disables pruning",
         "widths": "comma-separated layer widths"}


def _field_default(cls, name):
    default = next(f.default for f in dataclasses.fields(cls) if f.name == name)
    # a tuple (the milestones) is spelled as on the command line: 30,40,50
    return ",".join(map(str, default)) if isinstance(default, tuple) else default


# every training key's default, in distill's manifest order; empty widths are
# the data's ends around the default hidden layers
_DEFAULTS = {"objective": "vrm",
             **{key: _field_default(*row) for key, row in _TRAIN_KEYS.items()},
             "widths": ""}

# the keys each training command's run reads, in manifest order, each a flag
# (n_ops is --n-ops) and a config key.  A teacher trains on labels alone;
# ablate sweeps objective, alpha and seed with --objectives, --alphas, --seeds
_COMMAND_KEYS = {
    "train-teacher": (*(key for key, (cls, _) in _TRAIN_KEYS.items()
                        if cls is TrainConfig and key != "im_kd_weight"), "widths"),
    "distill": tuple(_DEFAULTS),
    "ablate": tuple(key for key in _DEFAULTS if key not in ("objective", "alpha", "seed")),
}


def _effective(args) -> dict:
    """Merge defaults < config file (flat key=value lines) < explicit flags."""
    keys = _COMMAND_KEYS[args.command]
    merged = {k: _DEFAULTS[k] for k in keys}
    # bytes that are not UTF-8 end in a bad line or value (exit 2), not a traceback
    text = read_input(args.config, "config file").decode(errors="replace") if args.config else ""
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            if "=" not in line:
                raise ParameterError(f"bad config line: {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise ParameterError(f"unknown config key {key!r}")
            if key not in keys:
                raise ParameterError(f"config key {key!r} does not apply to {args.command}")
            merged[key] = _parse_number(type(_DEFAULTS[key]), val, f"config key {key}")
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _parse_number(cast, text: str, what: str):
    """``cast(text)``, with a ParameterError naming ``what`` if it does not parse."""
    try:
        return cast(text)
    except ValueError:
        raise ParameterError(f"{what}: {text!r} is not a valid {cast.__name__}") from None


def _parse_list(text: str, what: str, cast=int) -> list:
    return [_parse_number(cast, tok, what) for tok in str(text).split(",") if tok != ""]


def _check_fit(widths, data: Dataset, what: str, error) -> None:
    if widths[0] != data.dim or widths[-1] != data.n_classes:
        raise error(f"{what} {','.join(map(str, widths))} do not fit the data "
                    f"({data.dim} features, {data.n_classes} classes)")


def _fit(cfg: dict, data: Dataset, widths: str, hidden: tuple, objective: str,
         teacher: MLP | None, activation: str = "relu") -> tuple[TrainConfig, MLPSpec]:
    """The TrainConfig of ``cfg`` and the MLPSpec of ``widths`` (by default the
    data's ends around ``hidden``), checked with ``objective`` and ``teacher``
    against ``data`` before any run directory exists.  A field whose key
    ``cfg`` lacks keeps its default."""
    kwargs = {VRMWeights: {}, AugmentSpec: {"seed": cfg["seed"]}, TrainConfig: {}}
    for key, (cls, name) in _TRAIN_KEYS.items():
        if key in cfg:
            kwargs[cls][name] = cfg[key]
    kwargs[TrainConfig]["milestones"] = tuple(_parse_list(cfg["milestones"], "--milestones"))
    config = TrainConfig(weights=VRMWeights(**kwargs[VRMWeights]),
                         augment=AugmentSpec(**kwargs[AugmentSpec]), **kwargs[TrainConfig])
    check_objective(objective, teacher, config, data)
    layers = _parse_list(widths, "--widths") if widths else [data.dim, *hidden, data.n_classes]
    spec = MLPSpec(layers, activation, cfg["seed"])
    _check_fit(spec.layer_widths, data, "--widths", ParameterError)
    return config, spec


def _load_teacher(path, data: Dataset) -> MLP:
    teacher, _ = load_checkpoint(path)
    _check_fit(teacher.spec.layer_widths, data, "teacher widths", InputError)
    return teacher


# -- commands --------------------------------------------------------------


def cmd_gen_data(args, parser) -> int:
    data = make_synthetic_dataset(args.kind, args.classes, args.dim,
                                  args.per_class, args.noise, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(data, out)
    print(f"wrote {out} ({data.inputs.shape[0]} samples, dim {data.dim}, "
          f"{data.n_classes} classes)")
    return EXIT_OK


def cmd_train_teacher(args, parser) -> int:
    cfg = _effective(args)
    widths = cfg.pop("widths")  # the manifest lists the spec's widths
    data = load_dataset(args.data)
    config, spec = _fit(cfg, data, widths, (64, 64), "ce_only", None, args.activation)

    with Run(args, {"data": str(Path(args.data)),
                    "widths": ",".join(map(str, spec.layer_widths)),
                    "activation": args.activation, **cfg}) as run:
        model, records = train_teacher(spec, data, config)
        metrics, ckpt = run.dir / "metrics.csv", run.dir / "teacher.ckpt"
        write_metrics_csv(records, metrics)
        save_checkpoint(model, ckpt, epoch=config.epochs)
        run.fields.update(checkpoint=str(ckpt), metrics=str(metrics),
                          final_val_acc=records[-1].val_acc)
    print(f"teacher val acc {records[-1].val_acc:.4f} -> {ckpt}")
    return EXIT_OK


def cmd_distill(args, parser) -> int:
    cfg = _effective(args)
    objective = cfg["objective"]
    data = load_dataset(args.data)
    teacher = _load_teacher(args.teacher, data) if args.teacher else None
    config, spec = _fit(cfg, data, cfg["widths"], (32,), objective, teacher)

    with Run(args, {"data": str(Path(args.data)), "teacher": str(args.teacher), **cfg}) as run:
        student, records = distill_student(spec, teacher, data, config, objective)
        metrics, breakdown = run.dir / "metrics.csv", run.dir / "breakdown.csv"
        ckpt = run.dir / "student.ckpt"
        write_metrics_csv(records, metrics)
        write_breakdown_csv(records, breakdown)
        save_checkpoint(student, ckpt, epoch=config.epochs)
        run.fields.update(final_val_acc=records[-1].val_acc, metrics=str(metrics),
                          breakdown=str(breakdown), checkpoint=str(ckpt))
    print(f"{objective} val acc {records[-1].val_acc:.4f} -> {run.dir}")
    return EXIT_OK


def cmd_ablate(args, parser) -> int:
    objectives = [tok for tok in args.objectives.split(",") if tok]
    seeds = _parse_list(args.seeds, "--seeds")
    alphas = _parse_list(args.alphas, "--alphas", float)
    if not objectives or not seeds or not alphas:
        parser.error("empty sweep grid")
    # as parsed, so 1 and 1.0 are one alpha: a repeat would rerun a cell
    for flag, values, text in (("--objectives", objectives, args.objectives),
                               ("--seeds", seeds, args.seeds), ("--alphas", alphas, args.alphas)):
        if len(set(values)) < len(values):
            raise ParameterError(f"{flag} must list distinct values, got {text!r}")

    cfg_base = _effective(args)
    data = load_dataset(args.data)
    teacher = _load_teacher(args.teacher, data)
    # every cell is validated before the run directory exists
    cells = []
    for obj, alpha, seed in itertools.product(objectives, alphas, seeds):
        cfg = dict(cfg_base, alpha=alpha, seed=seed)
        cells.append((obj, cfg, *_fit(cfg, data, cfg["widths"], (32,), obj, teacher)))

    with Run(args, {"data": str(Path(args.data)), "teacher": args.teacher,
                    "objectives": args.objectives, "sweep_seeds": args.seeds,
                    "alphas": args.alphas, **cfg_base}) as run:
        rows = []
        for obj, cfg, config, spec in cells:
            _, records = distill_student(spec, teacher, data, config, obj)
            final = records[-1]
            rows.append([obj, cfg["seed"], cfg["alpha"], cfg["beta"], cfg["tau"], cfg["uep"],
                         final.val_acc, final.train_acc, final.train_acc - final.val_acc])
            print(f"  {obj} seed={cfg['seed']} alpha={cfg['alpha']} "
                  f"val={final.val_acc:.4f}")

        summary = run.dir / "summary.csv"
        write_csv(summary, ["objective", "seed", "alpha", "beta", "tau", "uep", "final_val_acc",
                            "final_train_acc", "train_val_gap"], rows)
        run.fields.update(summary=str(summary), cells=len(rows))
    print(f"{len(rows)} cells -> {summary}")
    return EXIT_OK


def cmd_pilot(args, parser) -> int:
    if args.seeds < 1:
        parser.error("need >= 1 seed")
    kinds = [k.strip().upper() for k in args.loss_kinds.split(",") if k]
    if not kinds or len(set(kinds)) < len(kinds):
        raise ParameterError(f"--loss-kinds must list distinct loss kinds, got {args.loss_kinds!r}")
    # every study is validated before the run directory exists
    specs = {kind: [PilotSpec(args.batch, args.dim, args.spurious_index, args.noise_scale,
                              seed, kind) for seed in range(args.seeds)] for kind in kinds}
    with Run(args, {"batch": args.batch, "dim": args.dim,
                    "spurious_index": args.spurious_index, "noise_scale": args.noise_scale,
                    "n_seeds": args.seeds, "loss_kinds": ",".join(kinds)}) as run:
        medians = {}
        for kind in kinds:
            per_seed = []
            for spec in specs[kind]:
                dg = gradient_diffusion_pilot(spec)
                write_pilot_csv(dg, args.spurious_index,
                                run.dir / f"pilot_{kind.lower()}_seed{spec.seed}.csv")
                per_seed.append(float(np.median(np.abs(np.delete(dg, args.spurious_index)))))
            medians[kind] = float(np.median(per_seed))

        rows = [[kind, medians[kind]] for kind in kinds]
        if "IM" in medians and "RM" in medians:
            rows.append(["RM_over_IM_ratio", medians["RM"] / max(medians["IM"], 1e-300)])
        write_csv(run.dir / "summary.csv", ["loss_kind", "median_offtarget_abs_delta_g"], rows)
        run.fields.update(summary=str(run.dir / "summary.csv"))
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


def _add_train_flags(p: argparse.ArgumentParser, command, flags=_TRAIN_FLAGS):
    """--data, --config, --name, and a flag for each of ``command``'s keys."""
    p.add_argument("--data", required=True)
    for key in _COMMAND_KEYS[command]:
        if key == "objective":
            p.add_argument("--objective", choices=list(OBJECTIVES))
        else:
            p.add_argument("--" + key.replace("_", "-"), type=type(_DEFAULTS[key]),
                           help=_HELP.get(key))
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--name", help="run directory name under VRM_RUN_DIR")
    p.set_defaults(flags=flags)


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
    p.set_defaults(func=cmd_gen_data, flags=_GEN_DATA_FLAGS)

    p = sub.add_parser("train-teacher", help="label-only teacher pretraining")
    p.add_argument("--activation", choices=["relu", "tanh"], default="relu")
    _add_train_flags(p, "train-teacher")
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("distill", help="train a student against a frozen teacher")
    p.add_argument("--teacher")
    _add_train_flags(p, "distill")
    p.set_defaults(func=cmd_distill)

    # every cell takes its seed from --seeds, which no abbreviated --seed may stand for
    p = sub.add_parser("ablate", help="sweep objectives/hyperparameters", allow_abbrev=False)
    p.add_argument("--teacher", required=True)
    p.add_argument("--objectives", default="vrm,gram,ce_only")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--alphas", default=_fmt(_field_default(VRMWeights, "alpha")),
                   help="comma-separated alpha grid")
    _add_train_flags(p, "ablate", dict(_TRAIN_FLAGS, objective="--objectives", seed="--seeds",
                                       alpha="--alphas"))
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("pilot", help="spurious-gradient diffusion study")
    for field in ("B", "D", "t", "c"):
        default = _field_default(PilotSpec, field)
        p.add_argument(_PILOT_FLAGS[field], type=type(default), default=default)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--loss-kinds", dest="loss_kinds", default="im,rm")
    p.add_argument("--name")
    p.set_defaults(func=cmd_pilot, flags=_PILOT_FLAGS)

    p = sub.add_parser("check", help="run gradient and oracle verification suites")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (KeyboardInterrupt, Terminated) as exc:
        signum = exc.signum if isinstance(exc, Terminated) else signal.SIGINT
        print(f"error: interrupted by {signal.Signals(signum).name}", file=sys.stderr)
        return 128 + signum
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        message, flags = str(exc), getattr(args, "flags", {})
        field = message.split(" ", 1)[0]
        if isinstance(exc, ParameterError) and field in flags:
            message = flags[field] + message[len(field):]
        print(f"error: {message}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
