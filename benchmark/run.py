#!/usr/bin/env python3
"""Outside-in benchmark of sumnet: train steps, B=1 predict and `sumnet eval`.

Run from the repository root:

    python3 benchmark/run.py --workload step-micro --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with the program untouched.
`--trace 1` alternates untraced cycles with cycles under the timing shims of
benchmark/tracing.py and reports the per-layer metrics plus the tracing
overhead.  The metric names and units come from BENCHMARK.json.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  Human-readable lines, the environment and every failure message
come before it.  Each run also writes its full record to benchmark/.out/.

`--self-test` forces failures (a NaN image through predict and through a
train step) and exits 0 only if each is counted as a failed operation.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmark" / ".out"
WORK = ROOT / "benchmark" / ".work"
SETUPS = 5  # setup_s is the median of this many set-ups in one run
MAX_FAILURES_SHOWN = 20


def _die(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "sumnet" / "__init__.py").is_file():
    _die(f"no sumnet sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import sumnet  # noqa: E402
from sumnet import cli  # noqa: E402
from sumnet import tensor as T  # noqa: E402

if Path(sumnet.__file__).resolve().parent != ROOT / "src" / "sumnet":
    _die(f"imported sumnet from {sumnet.__file__}, not from this checkout")

from speed import CACHE_BYTES, SpeedProbe  # noqa: E402
from tracing import OP_SPANS, STAGES, SpanTable, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    OPERATIONS, WORKLOADS, CheckFailed, predict, scan_array_bytes, score_reference, setup,
    train_step)


class Ledger:
    """Counts attempted and failed operations; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def run(self, kind: str, fn):
        """Run one operation; returns its measured seconds, or None if it failed."""
        self.attempted += 1
        try:
            return fn()
        except CheckFailed as exc:
            self._fail(str(exc))
        except Exception as exc:  # any raise is a failed operation, not a crash
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            if len(self.messages) <= MAX_FAILURES_SHOWN:
                traceback.print_exc(file=sys.stderr)
        return None

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(message)

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def environment(args) -> dict:
    workers = getattr(cli, "_workers", None)
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "eval_workers": workers() if workers is not None else 1,
        "checked_mode": T.checked_mode(),
        "workload": args.workload,
        "seed": args.seed,
        "model_seed": args.model_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# measurement


def tail(values):
    """The highest percentile with at least ten samples beyond it: (value, pct)."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def run_setups(wl, args, tracer, probe):
    """Set the workload up SETUPS times; keep the last state.

    Returns the state and each set-up's (raw, scaled) seconds.
    """
    times = []
    state = None
    for k in range(SETUPS):
        workdir = WORK / f"{wl.name}-{os.getpid()}" / f"setup{k}"
        if state is not None:
            shutil.rmtree(state.workdir, ignore_errors=True)
            state = None
        gc.collect()
        mark = probe.mark()
        t0 = time.perf_counter()
        if tracer is None:
            state = setup(wl, args.seed, args.model_seed, workdir)
        else:
            tracer.install()
            try:
                with tracer.op("setup"):
                    state = setup(wl, args.seed, args.model_seed, workdir)
            finally:
                tracer.uninstall()
        times.append((time.perf_counter() - t0, mark))
        probe.mark()
    streams = scan_array_bytes(state, "train") > CACHE_BYTES  # the warm-up step dominates
    return state, [(raw, raw * probe.scale(mark, streams)) for raw, mark in times]


def timed_loop(state, args, ledger, tracer, probe):
    """Repeat the workload's cycle until the time is up.

    Returns {kind: [(raw, scaled) seconds]} for untraced operations and the
    same for traced ones (empty unless tracing).  Traced runs trace every
    other cycle.
    """
    wl = state.workload
    plain = {k: [] for k in OPERATIONS}
    traced = {k: [] for k in OPERATIONS}
    gc.collect()
    mark = probe.mark()
    t_start = time.perf_counter()
    cycle = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds and len(state.losses) >= wl.loss_step:
            break
        if elapsed >= 3 * args.seconds:
            break  # a program this slow still returns inside the time limit
        tracing = tracer is not None and cycle % 2 == 1
        if tracing:
            tracer.install()
        try:
            for kind in wl.cycle:
                fn = functools.partial(OPERATIONS[kind], state)
                if tracing:
                    with tracer.op(kind):
                        seconds = ledger.run(kind, fn)
                else:
                    seconds = ledger.run(kind, fn)
                if seconds is not None:
                    (traced if tracing else plain)[kind].append((seconds, mark))
                mark = probe.mark()
        finally:
            if tracing:
                tracer.uninstall()
        cycle += 1
    for samples in (plain, traced):
        for kind, pairs in samples.items():
            streams = scan_array_bytes(state, kind) > CACHE_BYTES
            samples[kind] = [(raw, raw * probe.scale(m, streams)) for raw, m in pairs]
    return plain, traced


def scaled_ms(samples) -> list:
    return [scaled * 1e3 for _, scaled in samples]


def raw_ms(samples) -> list:
    return [raw * 1e3 for raw, _ in samples]


def end_to_end(state, plain, setup_times) -> tuple:
    wl = state.workload
    train = scaled_ms(plain["train"])
    pred = scaled_ms(plain["predict"])
    evals = scaled_ms(plain["eval"])
    train_tail, train_pct = tail(train)
    pred_tail, pred_pct = tail(pred)
    losses = state.losses
    values = {
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "train_step_ms_p50": statistics.median(train),
        "train_step_ms_tail": train_tail,
        "train_samples_per_s": wl.train_batch * len(train) / (sum(train) / 1e3),
        "train_loss_final": losses[min(len(losses), wl.loss_step) - 1],
        "eval_ms_per_sample": statistics.median(evals),
        "predict_b1_ms_p50": statistics.median(pred),
        "predict_b1_ms_tail": pred_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "train_step_ms": f"n={len(train)}, tail=p{train_pct:.0f}",
        "predict_b1_ms": f"n={len(pred)}, tail=p{pred_pct:.0f}",
        "eval_ms_per_sample": f"n={len(evals)} evals of {len(state.fold)} samples",
        "setup_s": "median of " + ", ".join(f"{t:.3f}" for _, t in setup_times),
        "raw_wall_clock": f"train_step_ms_p50 {statistics.median(raw_ms(plain['train'])):.3f}, "
                          f"predict_b1_ms_p50 {statistics.median(raw_ms(plain['predict'])):.3f}, "
                          f"eval_ms_per_sample {statistics.median(raw_ms(plain['eval'])):.3f}, "
                          f"setup_s {statistics.median(raw for raw, _ in setup_times):.3f}",
        "train_loss_final": f"loss of timed step {wl.loss_step} of {len(losses)}",
    }
    return values, notes


def per_layer(tracer: Tracer, state, plain, traced) -> tuple:
    """Per-layer metrics from the traced cycles, per train step or per call."""
    tab = SpanTable(tracer)
    n = max(1, tracer.ops["train"])
    n_eval = max(1, tracer.ops["eval"])
    steps = tracer.steps

    def step_count(key):
        return float(np.mean([s[key] for s in steps])) if steps else 0.0

    def per_step_ms(span, self_only=False):
        return tab.total(span, "train", self_only) * 1e3 / n

    def per_call_ms(span, op=None):
        return tab.total(span, op) * 1e3 / max(1, tab.count(span, op))

    v = {
        "tensor.nodes": step_count("nodes"),
        "tensor.leaves": step_count("leaves"),
        "tensor.backward_ms": per_step_ms("tensor.backward"),
    }
    for kind, span in OP_SPANS.items():
        v[f"tensor.nodes.{kind}"] = step_count(f"kind.{kind}")
        v[f"tensor.fwd_ms.{kind}"] = per_step_ms(span, self_only=True)
        v[f"tensor.bwd_ms.{kind}"] = tracer.bwd_kind[("train", kind)] * 1e3 / n
    v["scan.recurrence_fwd_ms"] = per_step_ms("scan.ssm_recurrence")
    v["scan.recurrence_bwd_ms"] = tracer.bwd_kind[("train", "ssm_recurrence")] * 1e3 / n
    v["scan.recurrence_calls"] = step_count("recurrence_calls")
    v["scan.cross_ms"] = per_step_ms("scan.cross_scan") + per_step_ms("scan.cross_merge")
    v["scan.state_mb"] = step_count("state_bytes") / 1e6
    for lvl in range(4):
        v[f"scan.fwd_ms.lvl{lvl}"] = tracer.fwd_level[("train", lvl)] * 1e3 / n
        v[f"scan.bwd_ms.lvl{lvl}"] = tracer.bwd_level[("train", lvl)] * 1e3 / n
    for s in STAGES:
        v[f"blocks.stage_fwd_ms.{s}"] = tracer.label_time[("train", s)] * 1e3 / n
        v[f"blocks.stage_bwd_ms.{s}"] = tracer.bwd_stage[("train", s)] * 1e3 / n
        v[f"blocks.stage_nodes.{s}"] = step_count(f"stage.{s}")
    v["blocks.conditioner_ms"] = per_step_ms("blocks.conditioner")
    v["blocks.ln_core_ms"] = per_step_ms("blocks.ln_core")
    v["blocks.ln_core_nodes"] = step_count("ln_core_nodes")
    v["blocks.dwconv_ms"] = per_step_ms("blocks.depthwise_conv3x3")
    v["blocks.dwconv_nodes"] = step_count("dwconv_nodes")
    v["objective.loss_fwd_ms"] = per_step_ms("objective.composite_loss")
    v["objective.loss_bwd_ms"] = tracer.bwd_stage[("train", "loss")] * 1e3 / n
    v["objective.loss_nodes"] = step_count("stage.loss")
    v["model.forward_ms"] = per_step_ms("model.Model.forward")
    v["model.adam_ms"] = per_step_ms("model.Adam.step")
    v["model.params"] = float(state.model.num_parameters())
    v["metrics.sample_ms"] = per_call_ms("metrics.evaluate_sample", "eval")
    v["metrics.auc_ms"] = per_call_ms("metrics.auc_judd_metric", "eval")
    v["metrics.summarize_ms"] = per_call_ms("metrics.summarize", "eval")
    v["cli.eval_ms"] = tab.total("cli.main", "eval") * 1e3 / n_eval
    v["cli.predict_ms"] = tab.total("model.Model.predict", "eval") * 1e3 / n_eval
    score, workers = [], []
    sample_m, summ_m = tab.mask("metrics.evaluate_sample"), tab.mask("metrics.summarize")
    for r in tab.roots("eval"):
        s_m, z_m = sample_m & (tab.root == r), summ_m & (tab.root == r)
        if s_m.any() and z_m.any():
            score.append(tab.end[z_m].max() - tab.start[s_m].min())
            workers.append(len(np.unique(tab.thread[s_m])))
    v["cli.score_ms"] = float(np.mean(score)) * 1e3 if score else 0.0
    v["cli.eval_workers"] = float(max(workers)) if workers else 0.0
    d = tracer.data
    v["data.generate_ms_per_sample"] = tab.total("data.generate_dataset") * 1e3 / max(1, d["generated"])
    v["data.load_ms_per_sample"] = tab.total("data.load_samples") * 1e3 / max(1, d["loaded"])
    v["data.checkpoint_save_ms"] = per_call_ms("data.save_checkpoint")
    v["data.checkpoint_load_ms"] = per_call_ms("data.load_checkpoint")
    v["data.checkpoint_mb"] = d["checkpoint_bytes"] / 1e6
    # per-layer times take the speed scale of the traced operations
    scale = statistics.median(sc / raw for k in traced for raw, sc in traced[k])
    for key in v:
        if "_ms" in key:
            v[key] *= scale
    nan = float("nan")
    med_plain = statistics.median(scaled_ms(plain["train"])) if plain["train"] else nan
    med_traced = statistics.median(scaled_ms(traced["train"])) if traced["train"] else nan
    v["trace.overhead_frac"] = med_traced / med_plain - 1.0

    repeats = all(s == steps[0] for s in steps)
    notes = {
        "traced": f"{tracer.ops['train']} train steps, {tracer.ops['predict']} predicts, "
                  f"{tracer.ops['eval']} evals",
        "not_applicable": "none: every workload runs train, predict and eval",
        "counts_repeat_exactly": str(repeats),
        "speed_scale": f"{scale:.4f} (per-layer ms are raw ms times this)",
        "untraced_train_step_ms_p50": f"{med_plain:.3f} (n={len(plain['train'])})",
        "traced_train_step_ms_p50": f"{med_traced:.3f} (n={len(traced['train'])})",
        "untraced_predict_b1_ms_p50": f"{statistics.median(scaled_ms(plain['predict'])):.3f}"
        if plain["predict"] else "n/a",
        "untraced_eval_ms_per_sample": f"{statistics.median(scaled_ms(plain['eval'])):.3f}"
        if plain["eval"] else "n/a",
    }
    if tracer.missing:
        notes["missing_shim_targets"] = ", ".join(tracer.missing)
    return v, notes


# ---------------------------------------------------------------------------
# entry points


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        _die(f"cannot read {path}: {exc}")


def measure(args) -> int:
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    wl = WORKLOADS[args.workload]
    env = environment(args)
    ledger = Ledger()
    tracer = Tracer(wl.size) if args.trace else None
    try:
        probe = SpeedProbe()
        state, setup_times = run_setups(wl, args, tracer, probe)
        score_reference(state)
        plain, traced = timed_loop(state, args, ledger, tracer, probe)
        losses = state.losses
        ledger.check(len(losses) >= wl.loss_step,
                     f"train: {len(losses)} good steps, train_loss_final needs {wl.loss_step}")
        ledger.check(len(losses) >= 2 and losses[-1] < losses[0],
                     f"train: loss did not fall across the timed steps ({losses[:1]} -> {losses[-1:]})")
        rises = sum(b >= a for a, b in zip(losses, losses[1:]))
        if args.trace:
            values, notes = per_layer(tracer, state, plain, traced)
            wanted = spec["per_layer"]
            tracer.save(OUT / f"trace_{wl.name}.npz")
        else:
            values, notes = end_to_end(state, plain, setup_times)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(WORK / f"{wl.name}-{os.getpid()}", ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        _die(f"no value for metrics {', '.join(missing)}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    frac = ledger.failed / ledger.attempted
    record = {"environment": env, "notes": notes, "ops_failed_frac": frac,
              "loss_rises": rises, "failures": ledger.messages, "metrics": metrics,
              "setup_s": setup_times, "losses": losses, "probe_ms": [[a * 1e3, b * 1e3] for a, b in probe.samples],
              "raw_ms": {k: raw_ms(v) for k, v in plain.items()},
              "scaled_ms": {k: scaled_ms(v) for k, v in plain.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{wl.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"env {json.dumps(env, sort_keys=True)}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(wl.name, "")
    print(f"workload {wl.name}: {why}")
    for key, text in notes.items():
        print(f"note {key}: {text}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"metric ops_failed_frac {frac:.6g} frac ({ledger.failed} of {ledger.attempted})")
    print(f"note loss rose on {rises} of {max(0, len(losses) - 1)} step transitions")
    for msg in ledger.messages[:MAX_FAILURES_SHOWN]:
        print(f"failure {msg}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def self_test(args) -> int:
    """Force failures and check that each one is counted, not raised."""
    wl = WORKLOADS["step-micro"]
    workdir = WORK / f"selftest-{os.getpid()}"
    ledger = Ledger()
    try:
        state = setup(wl, args.seed, args.model_seed, workdir)
        good = ledger.run("predict", lambda: predict(state))
        nan_sample = replace(state.fold[0], image=np.full_like(state.fold[0].image, np.nan))
        state.fold = [nan_sample] + state.fold[1:]
        state.n_predict = 0
        bad_predict = ledger.run("predict", lambda: predict(state))
        state.batch = [nan_sample] + state.batch[1:]
        bad_train = ledger.run("train", lambda: train_step(state))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = (good is not None and bad_predict is None and bad_train is None
          and ledger.attempted == 3 and ledger.failed == 2)
    for msg in ledger.messages:
        print(f"counted failure: {msg}")
    print(f"self-test {'passed' if ok else 'FAILED'}: "
          f"{ledger.failed} of {ledger.attempted} operations failed, 2 forced")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="corpus seed")
    parser.add_argument("--model-seed", type=int, default=0, help="model init seed")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test(args)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
