"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_c08 --seed 1 --seconds 36 --trace 0

`--trace 0` prints every end-to-end metric; `--trace 1` alternates untraced
and traced rounds of the workload, half the seconds each, and prints the
per-layer table with the tracing overhead. A predict or eval timing is the
best of its repeats (min-of-k), since interference on a shared machine only
adds time; a train() call's is the median of its repeats.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}. A result, a run manifest and (traced) the
spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up is short (0.1-0.4 s), so it is repeated for a while and its median taken
SETUP_REPEATS = 5
SETUP_SECONDS = 2.5
# The run is split into rounds of train -> predict -> eval, so that the
# repeats each metric takes its best of are spread over the whole run.
ROUNDS = 8


def _import_program():
    if not (SRC / "spandet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'spandet'}; run from a "
                 "full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import spandet
    if Path(spandet.__file__).resolve().parent != (SRC / "spandet").resolve():
        sys.exit(f"perfbench: imported spandet from {spandet.__file__}, not {SRC}")


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def manifest(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "src_lines": src_lines}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main_op_seconds(w, raw) -> float:
    """Time of one operation of the workload's main phase."""
    if w.main == "train":
        return statistics.median(s for s, _ in raw["train"]) / (w.epochs * w.n_train)
    from perfbench import workloads as W
    return statistics.median(W.best_latencies(raw["predict"]))


def phase_info(w, raw) -> dict:
    return {"train": {"windows": raw["windows"]["train"],
                      "ops": w.epochs * w.n_train * len(raw["train"]),
                      "val_ops": w.epochs * w.n_val * len(raw["train"])},
            "predict": {"windows": raw["windows"]["predict"],
                        "ops": sum(len(p["records"]) + len(p["failed"])
                                   for p in raw["predict"])},
            "eval": {"windows": raw["windows"]["eval"],
                     "ops": len(raw["eval"]) * w.n_test}}


def print_trace_table(w, tr, untraced, traced, per_layer):
    from perfbench import workloads as W
    from perfbench.tracer import self_time_table
    print(f"{'span':34s} {'calls':>8s} {'incl ms':>10s} {'self ms':>10s} {'self ms/call':>13s}")
    for name, calls, incl, own in self_time_table(tr):
        print(f"{name:34s} {calls:8d} {1e3 * incl:10.1f} {1e3 * own:10.1f} "
              f"{1e3 * own / calls:13.4f}")
    print()
    for k, v in per_layer.items():
        print(f"  {k:34s} {v:.6g}")
    per_sample = w.epochs * w.n_train
    u_calls = [s / per_sample for s, _ in untraced["train"]]
    t_calls = [s / per_sample for s, _ in traced["train"]]
    t_train = statistics.fmean(t_calls)
    fwd_loss_bwd = sum(per_layer[k] for k in ("model.forward_dn_ms", "training.loss_ms",
                                             "tensor.backward_ms"))
    step_rest = sum(per_layer[k] for k in ("training.denoise_ms", "training.clip_ms",
                                           "training.adamw_ms"))
    val = per_layer["training.validation_ms"] * w.n_val / w.n_train
    print(f"\ntrain() wall per sample: untraced best {1e3 * min(u_calls):.2f} ms, "
          f"mean {1e3 * statistics.fmean(u_calls):.2f} ms; traced best "
          f"{1e3 * min(t_calls):.2f} ms, mean {1e3 * t_train:.2f} ms")
    print(f"  traced mean: forward_dn + loss + backward {fwd_loss_bwd:.2f} ms; "
          f"denoise + clip + adamw {step_rest:.2f} ms; "
          f"validation {val:.2f} ms; rest of train() "
          f"{1e3 * t_train - fwd_loss_bwd - step_rest - val:.2f} ms")
    u_lat = 1e3 * statistics.median(W.best_latencies(untraced["predict"]))
    t_lat = 1e3 * statistics.median(W.best_latencies(traced["predict"]))
    print(f"predict latency p50 (best of passes): untraced {u_lat:.3f} ms, "
          f"traced {t_lat:.3f} ms ({100 * (t_lat / u_lat - 1):+.1f}%)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.environ["OPENBLAS_NUM_THREADS"] = "1"   # before numpy loads
    _import_program()
    from perfbench import tracer as tracing
    from perfbench import workloads as W
    if args.workload not in W.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    w = W.WORKLOADS[args.workload]

    out_dir = ROOT / "perfbench" / "results" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = ROOT / "perfbench" / ".work" / f"{w.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs, setup_times = (W.timed_setup(w, args.seed, work, 1) if args.trace else
                               W.timed_setup(w, args.seed, work, SETUP_REPEATS,
                                             SETUP_SECONDS))
        if not args.trace:
            over = {}
            raw = W.merge([W.run_phases(w, inputs, args.seconds / ROUNDS, over=over)
                           for _ in range(ROUNDS)])
            metrics = W.end_to_end(w, raw, setup_times, peak_rss_mb())
        else:
            # untraced and traced rounds alternate, so that both sides of the
            # overhead ratio see the same machine conditions
            tr = tracing.Tracer()
            plain, traced = [], []
            over_plain, over_traced = {}, {}
            share = args.seconds / (2 * ROUNDS)
            for _ in range(ROUNDS):
                plain.append(W.run_phases(w, inputs, share, over=over_plain))
                with tr.installed():
                    traced.append(W.run_phases(
                        w, inputs, share,
                        wrap_provider=lambda p: tr.wrap(p, "data.provider"),
                        over=over_traced))
            untraced, raw = W.merge(plain), W.merge(traced)
            phases = phase_info(w, raw)
            per_layer = tracing.layer_metrics(tr, phases, w.main,
                                              w.train_config().grad_clip)
            per_layer["trace.overhead_pct"] = 100.0 * (
                main_op_seconds(w, raw) / main_op_seconds(w, untraced) - 1.0)
            print_trace_table(w, tr, untraced, raw, per_layer)
            metrics = {k: (v, tracing.UNITS[k]) for k, v in per_layer.items()}
            out_dir.mkdir(parents=True, exist_ok=True)
            tr.write(out_dir / "spans.jsonl")
        problems = W.check_outputs(w, inputs["split"], raw)
        if args.trace and (untraced["predict"][0]["digest"] != raw["predict"][0]["digest"]
                           or untraced["train"][0][1] != raw["train"][0][1]):
            problems.append("tracing changed the loss log or the predictions")
        attempted, failed = W.counts(w, raw)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = {"train_calls": len(raw["train"]), "predict_passes": len(raw["predict"]),
               "texts": len(raw["predict"][0]["latencies"]),
               "eval_calls": len(raw["eval"]), "setup_repeats": len(setup_times)}
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for p in raw["predict"][0]["failed"]:
        print(f"failed text: {p}", file=sys.stderr)
    if not args.trace:
        for k, (v, unit) in metrics.items():
            print(f"{k:28s} {v:14.6g} {unit}")
    print(f"samples: {samples}")
    print(f"train loss log digest: {_digest(raw['train'][0][1])}")
    print(f"prediction digest: {raw['predict'][0]['digest']}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").write_text(json.dumps(manifest(args), indent=2) + "\n")
    (out_dir / "result.json").write_text(json.dumps(
        {**result, "samples": samples, "problems": problems,
         "train_log": raw["train"][0][1],
         "prediction_digest": raw["predict"][0]["digest"]}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


if __name__ == "__main__":
    sys.exit(main())
