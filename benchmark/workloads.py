"""Workload definitions, set-up, and the three checked operations.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one returned.  A workload fixes the model size and
a cycle of operations that repeats until the run's time is up, so the three
kinds of operation stay interleaved and a burst of machine noise lands on
at most a few samples of each kind instead of a whole phase.

The operations drive sumnet only through names it exports:

  train    one step of batch_loss, then tensor.backward, then Adam.step,
           on a fixed batch;
  predict  Model.predict on one image, on a model loaded from the
           workload's checkpoint (the path `sumnet infer` takes, minus
           file I/O);
  eval     `sumnet eval` run in-process through cli.main on a manifest.

Each operation checks its own output and raises CheckFailed when the check
does not hold; the caller counts that as a failed operation.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sumnet import cli
from sumnet import data as D
from sumnet import model as M
from sumnet import tensor as T

METRIC_KEYS = ("cc", "kld", "auc", "sim", "nss")
EVAL_TOLERANCE = 1e-9
LR = 1e-3  # the overfit-memorization learning rate: the loss falls at every step


class CheckFailed(Exception):
    """An operation ran but its output failed the benchmark's check."""


@dataclass(frozen=True)
class Workload:
    name: str
    channels: int  # base width C
    size: int  # input side S
    per_domain: int  # corpus scenes per domain
    train_batch: int  # B of a train step
    eval_folds: tuple  # manifests whose samples eval and predict use
    cycle: tuple  # operation kinds, repeated until the time is up
    loss_step: int  # train_loss_final is the loss of this train step


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "step-micro", channels=4, size=32, per_domain=2, train_batch=8,
            eval_folds=("train",), cycle=("train",) * 8 + ("predict",) * 4 + ("eval",),
            loss_step=32,
        ),
        Workload(
            "step-std", channels=16, size=64, per_domain=2, train_batch=8,
            eval_folds=("train",), cycle=("train",) * 4 + ("predict",) * 4 + ("eval",) * 2,
            loss_step=12,
        ),
        Workload(
            "serve-std", channels=16, size=64, per_domain=10, train_batch=8,
            eval_folds=("train", "val", "test"),
            cycle=("eval",) * 2 + ("predict",) * 8 + ("train",) * 3,
            loss_step=12,
        ),
    )
}


@dataclass
class State:
    """Everything a workload's timed loop needs, built by `setup`."""

    workload: Workload
    workdir: Path
    model: M.Model  # trained by the train operation
    opt: M.Adam
    batch: list  # samples of the fixed train batch
    served: M.Model  # loaded from the checkpoint; never trained
    checkpoint: Path
    manifest: Path  # the eval fold
    fold: list  # samples of the eval fold, also the predict inputs
    reference: dict = field(default_factory=dict)  # sample id -> model.evaluate metrics
    losses: list = field(default_factory=list)
    first_preds: dict = field(default_factory=dict)
    n_predict: int = 0


def scan_array_bytes(state: State, kind: str) -> int:
    """Bytes of one float64 [B, L, C, N] scan array at an operation's first stage."""
    cfg = state.served.cfg
    batch = {"train": len(state.batch), "predict": 1,
             "eval": min(cfg.batch_size, len(state.fold))}[kind]
    return batch * (cfg.input_size // 4) ** 2 * cfg.base_channels * cfg.state_size * 8


def model_config(wl: Workload, model_seed: int) -> M.SumConfig:
    return M.SumConfig(input_size=wl.size, base_channels=wl.channels, seed=model_seed, lr=LR)


def _write_fold_manifest(paths: dict, folds: tuple, out: Path) -> Path:
    if len(folds) == 1:
        return Path(paths[folds[0]])
    text = "".join(Path(paths[f]).read_text(encoding="utf-8") for f in folds)
    out.write_text(text, encoding="utf-8")
    return out


def setup(wl: Workload, seed: int, model_seed: int, workdir: Path) -> State:
    """Generate the corpus, load it, build and checkpoint the model, warm up."""
    corpus = workdir / "corpus"
    paths = D.generate_dataset(corpus, n_per_domain=wl.per_domain, size=wl.size, seed=seed)
    manifest = _write_fold_manifest(paths, wl.eval_folds, corpus / "manifest_eval.tsv")
    fold = D.load_samples(manifest)
    if wl.train_batch <= len(fold):
        batch = fold[: wl.train_batch]
    else:
        every = [s for f in ("train", "val", "test") for s in D.load_samples(paths[f])]
        batch = every[: wl.train_batch]
    if len(batch) != wl.train_batch:
        raise RuntimeError(f"corpus holds {len(batch)} samples, batch needs {wl.train_batch}")

    cfg = model_config(wl, model_seed)
    model = M.Model(cfg)
    opt = M.Adam(model.params(), lr=cfg.lr)
    checkpoint = workdir / "model.ckpt"
    D.save_checkpoint(checkpoint, model.state_arrays())
    served = M.Model(cfg)
    served.load_state(D.load_checkpoint(checkpoint))

    state = State(wl, workdir, model, opt, batch, served, checkpoint, manifest, fold)
    train_step(state)  # warm-up
    predict(state)
    state.losses.clear()
    state.first_preds.clear()
    state.n_predict = 0
    return state


def score_reference(state: State) -> None:
    """What eval must reproduce: the same checkpoint scored by model.evaluate."""
    reports, _ = M.evaluate(state.served, state.fold, batch_size=state.served.cfg.batch_size)
    state.reference = {r.sample_id: {k: getattr(r, k) for k in METRIC_KEYS} for r in reports}


def train_step(state: State) -> float:
    """One training step; returns its seconds (the checks are not timed)."""
    t0 = time.perf_counter()
    with T.Tape() as tape:
        loss = M.batch_loss(state.model, state.batch, list(range(len(state.batch))))
        grads = T.backward(tape, loss)
    seconds = time.perf_counter() - t0
    value = float(loss.data)
    if not math.isfinite(value):
        raise CheckFailed(f"train: non-finite loss {value}")
    if not all(np.isfinite(g).all() for g in grads.values()):
        raise CheckFailed("train: non-finite gradient")
    t0 = time.perf_counter()
    state.opt.step(grads)
    seconds += time.perf_counter() - t0
    state.losses.append(value)
    return seconds


def predict(state: State) -> float:
    """B=1 predict of the next fold image; checks range and repeatability."""
    i = state.n_predict % len(state.fold)
    state.n_predict += 1
    s = state.fold[i]
    img, label = s.image[None], [s.label]
    t0 = time.perf_counter()
    out = state.served.predict(img, label)
    seconds = time.perf_counter() - t0
    _check_prediction(out, state.workload.size, s.sid)
    first = state.first_preds.setdefault(s.sid, out.copy())
    if not np.array_equal(first, out):
        raise CheckFailed(f"predict: {s.sid} differs from its first prediction")
    return seconds


def _check_prediction(out, size: int, sid: str) -> None:
    out = np.asarray(out)
    if out.shape != (1, size, size):
        raise CheckFailed(f"predict: {sid} has shape {out.shape}")
    if not np.isfinite(out).all():
        raise CheckFailed(f"predict: {sid} has non-finite values")
    if out.min() < 0.0 or out.max() > 1.0:
        raise CheckFailed(f"predict: {sid} leaves [0, 1]")


def evaluate_cli(state: State) -> float:
    """`sumnet eval` in-process; returns seconds per sample of the fold."""
    out = state.workdir / "eval.txt"
    argv = ["eval", "--manifest", str(state.manifest), "--checkpoint", str(state.checkpoint),
            "--out", str(out)]
    t0 = time.perf_counter()
    code = cli.main(argv)
    seconds = time.perf_counter() - t0
    if code != 0:
        raise CheckFailed(f"eval: exit code {code}")
    _check_eval_output(out.read_text(encoding="utf-8"), state.reference)
    return seconds / len(state.fold)


def _json_documents(text: str):
    dec = json.JSONDecoder()
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return
        doc, pos = dec.raw_decode(text, pos)
        yield doc


def _check_eval_output(text: str, reference: dict) -> None:
    docs = list(_json_documents(text))
    rows = [d for d in docs if "sample_id" in d]
    summaries = [d for d in docs if "summaries" in d]
    if len(rows) != len(reference) or len(summaries) != 1:
        raise CheckFailed(f"eval: {len(rows)} sample rows for {len(reference)} samples")
    for row in rows:
        ref = reference.get(row["sample_id"])
        if ref is None:
            raise CheckFailed(f"eval: unknown sample {row['sample_id']}")
        for k in METRIC_KEYS:
            got, want = row.get(k), ref[k]
            if got is None or want is None:
                raise CheckFailed(f"eval: {row['sample_id']} excludes {k}")
            if abs(got - want) > EVAL_TOLERANCE * max(1.0, abs(want)):
                raise CheckFailed(f"eval: {row['sample_id']} {k} {got} != model.evaluate {want}")
    for run, summary in summaries[0]["summaries"].items():
        excluded = sum(summary[k]["excluded"] for k in METRIC_KEYS)
        if excluded:
            raise CheckFailed(f"eval: run {run} excludes {excluded} metric values")


OPERATIONS = {"train": train_step, "predict": predict, "eval": evaluate_cli}
