"""Training benchmark of the vrm package.

    python3 bench/run.py                    # every workload, one process each
    python3 bench/run.py --workload vrm_desk --seed 3 --seconds 20 --trace 0

A run sets up the workload, runs ``distill_student`` back to back for
``--seconds`` and gates every run for correctness.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` wraps each layer's public names and
reports the per-layer split instead.  Each metric is printed with its unit
and sample count; the last line of standard output is the JSON result.
The exit code is 0 only when every run passed the gate.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from vrmbench.envinfo import BLAS_THREAD_VARS  # noqa: E402  (does not load numpy)

# one BLAS thread, pinned before numpy is first imported
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

from vrmbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402  (imports numpy)

RUN_SECONDS = 20
WORKLOAD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload in this process (default: all, one process each)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                   help="directory for run outputs, spans and result records")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _report(record: dict, env: dict) -> None:
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}")
    for name, m in record["metrics"].items():
        raw = f" (raw {m['raw']:.6g})" if "raw" in m else ""
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']:9s} n={m['n']} {m['of']}{raw}")
    print(f"  {'failed_frac':38s} {record['failed']} / {record['attempted']} runs")
    for reason in record["failures"]:
        print(f"  failure: {reason}")
    print(f"  outputs_match: {record['outputs_match']} (sha256 {record['outputs_digest']})")
    if "speed_scale_median" in record:
        print(f"  speed scale (reference / measured, median): {record['speed_scale_median']:.4f}")
    for name, us, share in record.get("stages", []):
        print(f"  stage {name:22s} {us:10.1f} us/step {100 * share:5.1f}%")
    print("env: " + json.dumps(env, sort_keys=True))


def run_one(args) -> int:
    t0 = perf_counter()
    try:
        import vrm  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import vrm from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC not in Path(vrm.__file__).resolve().parents:
        print(f"error: vrm was imported from {vrm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0

    from vrmbench.envinfo import environment
    from vrmbench.harness import run_workload, stage_shares

    w = WORKLOADS[args.workload]
    out = args.out / f"{w.name}-seed{args.seed}-trace{args.trace}"
    try:
        record = run_workload(w, args.seed, args.seconds, bool(args.trace), import_s, out)
    except Exception as exc:  # set-up failed: one attempted unit, failed
        record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
                  "attempted": 1, "failed": 1,
                  "failures": [f"set-up raised {type(exc).__name__}: {exc}"],
                  "metrics": {}, "outputs_digest": None, "outputs_match": None}
    if args.trace and w.objective == "vrm" and not record["failed"]:
        record["stages"] = stage_shares(record["metrics"])
    env = environment(ROOT)
    record["env"] = env
    _report(record, env)
    (out / "result.json").parent.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    correct = record["failed"] == 0 and bool(record["metrics"])
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in record["metrics"].items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(args.out)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S, check=False)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        combined["correct"] &= bool(result["correct"]) and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
