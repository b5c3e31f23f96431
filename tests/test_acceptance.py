"""Acceptance gate: one test per headline capability claim.

Each test prints a single `ACCEPTANCE <name>: PASS/FAIL (...)` verdict line
with the measured numbers (bypassing capture so the line lands in the
terminal), then asserts.  The behavioral criteria at the bottom train real
models and dominate the suite's wall clock.
"""

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import sumnet.scan
from sumnet import cli
from sumnet import tensor as T
from sumnet.blocks import gated_block, init_vss
from sumnet.data import generate_dataset, load_samples, read_manifest
from sumnet.gradcheck import MODEL_TOL, OP_TOL, run_suite
from sumnet.metrics import (
    auc_judd_metric,
    cc_metric,
    f_scores,
    kld_metric,
    nss_metric,
    sim_metric,
)
from sumnet.model import (
    PLACEMENTS,
    Adam,
    Model,
    SumConfig,
    batch_loss,
    evaluate,
    train,
)
from sumnet.objective import DEFAULT_WEIGHTS, composite_loss
from sumnet.rng import SplitMix64
from sumnet.scan import _traversals, bench_lengths, cross_merge_fwd, fit_loglog_slope

from blas_threads import openblas_threads, set_blas_threads
from oracles import kl_loss, sim_loss, ssm_recurrence


def verdict(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def micro_cfg(**kw):
    base = dict(input_size=32, base_channels=4, state_size=2,
                encoder_depths=(1, 1, 1, 1), decoder_depths=(1, 1, 1, 1),
                token_dim=16, seed=3)
    base.update(kw)
    return SumConfig(**base)


# ---------------------------------------------------------------------------
# 1. every gradient in the system agrees with central finite differences


def test_gradient_suite(capsys):
    t0 = time.perf_counter()
    rows = run_suite("all")
    cli_rc = cli.main(["gradcheck", "--module", "all"])
    elapsed = time.perf_counter() - t0
    failures = [(n, e, tol) for n, e, tol in rows if not e < tol]
    worst_op = max(e for _, e, tol in rows if tol == OP_TOL)
    worst_model = max(e for _, e, tol in rows if tol == MODEL_TOL)
    ok = not failures and cli_rc == 0 and elapsed < 600
    verdict(capsys, "gradient-suite", ok,
            f"{len(rows)} checks, worst op {worst_op:.2e} < {OP_TOL:g}, "
            f"worst end-to-end {worst_model:.2e} < {MODEL_TOL:g}, "
            f"cli exit {cli_rc}, {elapsed:.0f}s < 600s"
            + (f"; failures: {failures}" if failures else ""))


# ---------------------------------------------------------------------------
# 2. scan algebra: exact 4x round trip and the hand-unrolled recurrence


def test_scan_algebra(capsys):
    rng = SplitMix64(77)
    bad_shapes = []
    for h in range(1, 9):
        for w in range(1, 9):
            for c in (1, 4):
                f = rng.uniforms(h * w * c).reshape(1, h, w, c)
                merged = cross_merge_fwd(_traversals(f), h, w)
                if not np.array_equal(merged, 4.0 * f):
                    bad_shapes.append((h, w, c))
    # dt=1, A=-1, B=C=1, D=0, impulse input: the state decays, y = e^{-t}
    y = ssm_recurrence(np.ones((1, 3, 1)), np.array([[-1.0]]), np.ones((1, 3, 1)),
                       np.ones((1, 3, 1)), np.array([[[1.0], [0.0], [0.0]]]))
    oracle = np.array([1.0, np.exp(-1.0), np.exp(-2.0)])
    err = float(np.max(np.abs(y.data.ravel() - oracle)))
    ok = not bad_shapes and err <= 1e-12
    verdict(capsys, "scan-algebra", ok,
            f"merge∘scan == 4·id bit-exact on all 128 shapes up to 8x8x4"
            + (f" EXCEPT {bad_shapes}" if bad_shapes else "")
            + f"; 3-step recurrence err {err:.2e} <= 1e-12")


# ---------------------------------------------------------------------------
# 3. the scan's wall clock grows linearly in sequence length


def _complexity_gate(lengths):
    """(passed, minima, slope, worst doubling ratio) of bench_lengths' minima
    of 15 interleaved runs, with one retry.  Other processes on a shared
    machine can slow the scan several-fold for phases longer than 5 rounds
    take; a length's minimum needs one undisturbed round, and 15 rounds
    find one far more often."""
    def measure():
        mins = bench_lengths(lengths, runs=15)
        vals = [mins[n] for n in lengths]
        slope = fit_loglog_slope(lengths, vals)
        worst_ratio = max(vals[i + 1] / vals[i] for i in range(len(vals) - 1))
        return 0.8 <= slope <= 1.3 and worst_ratio <= 2.5, vals, slope, worst_ratio

    result = measure()
    # one retry: a scheduler burst can still poison every run of a length
    return result if result[0] else measure()


def test_linear_complexity(capsys):
    ok, vals, slope, worst_ratio = _complexity_gate([1024, 2048, 4096, 8192])
    verdict(capsys, "linear-complexity", ok,
            f"log-log slope {slope:.3f} in [0.8, 1.3], "
            f"worst doubling ratio {worst_ratio:.2f} <= 2.5 "
            f"(minima of 15: {', '.join(f'{v * 1e3:.1f}ms' for v in vals)})")


def test_linear_complexity_gate_fails_on_a_quadratic_kernel(monkeypatch):
    def quadratic(x4, *params, keep):  # every step against every other, 256 rows at a time
        v = x4[0, 0, :, 0]
        for i in range(0, len(v), 256):
            np.multiply.outer(v[i:i + 256], v).sum()

    monkeypatch.setattr(sumnet.scan, "selective_scan_fwd", quadratic)
    ok, vals, slope, worst_ratio = _complexity_gate([1024, 2048, 4096, 8192])
    assert not ok, (slope, worst_ratio)


# ---------------------------------------------------------------------------
# 4. conditioning at identity is invisible, bit for bit


def test_conditional_identity(capsys):
    rng = SplitMix64(5)
    w = init_vss(channels=8, state_size=4, seed=2, name="blk")
    f = T.Tensor(rng.uniforms(2 * 6 * 6 * 8).reshape(2, 6, 6, 8))
    block_ok = np.array_equal(gated_block(f, w).data,
                              gated_block(f, w, np.tile([1.0, 0.0, 1.0, 0.0, 1.0], (2, 1))).data)

    imgs = rng.uniforms(2 * 32 * 32 * 3).reshape(2, 32, 32, 3)
    none_out = Model(micro_cfg(conditioning="none")).forward(imgs).data
    bad = [p for p in PLACEMENTS
           if not np.array_equal(
               Model(micro_cfg(placement=p)).forward(imgs, [1, 2]).data, none_out)]
    ok = block_ok and not bad
    verdict(capsys, "conditional-identity", ok,
            f"C-VSS at (1,0,1,0,1) == VSS bit-exact: {block_ok}; "
            f"zero-init prompt forward == none forward bit-exact for all "
            f"placements" + (f" EXCEPT {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# 5. loss/metric closed forms, and the oracle scores itself perfectly


@pytest.fixture(scope="session")
def corpus64(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus64")
    paths = generate_dataset(root, n_per_domain=5, size=64, seed=20240915)
    return root, paths


def test_metric_oracles(capsys, corpus64, tmp_path):
    checks = []  # (name, ok, detail)

    v = kld_metric([[1.0, 0.0]], [[0.5, 0.5]])
    checks.append(("kld two-cell", abs(v - np.log(2.0)) < 1e-6, f"{v:.6f}~log2"))
    v = float(kl_loss([[[1.0, 0.0]]], [[[0.5, 0.5]]]).data)  # the losses take [B, H, W] maps
    checks.append(("kl loss two-cell", abs(v - np.log(2.0)) < 1e-6, f"{v:.6f}~log2"))
    lit = float(kl_loss([[[0.7, 0.3]]], [[[0.4, 0.6]]], literal=True).data)
    can = float(kl_loss([[[0.7, 0.3]]], [[[0.4, 0.6]]]).data)
    checks.append(("literal kl differs", abs(lit - can) > 1e-6, f"{lit:.4f} vs {can:.4f}"))

    v = sim_metric([[0.7, 0.3]], [[0.4, 0.6]])
    checks.append(("sim two-cell", abs(v - 0.7) < 1e-12, f"{v:.6f}=0.7"))
    v = float(sim_loss([[[0.7, 0.3]]], [[[0.4, 0.6]]]).data)
    checks.append(("sim loss two-cell", abs(v - 0.7) < 1e-12, f"{v:.6f}=0.7"))

    fix = np.array([[0.0, 0.0, 1.0]])
    v = nss_metric(fix, np.array([[0.0, 1.0, 2.0]]))
    want = 1.0 / np.sqrt(2.0 / 3.0)
    checks.append(("nss z-score", abs(v - want) < 1e-6, f"{v:.6f}~{want:.6f}"))

    rng = SplitMix64(40)
    g = rng.uniforms(64).reshape(8, 8)
    p = rng.uniforms(64).reshape(8, 8)
    v = cc_metric(g, p)
    ref = float(np.corrcoef(g.ravel(), p.ravel())[0, 1])
    checks.append(("cc == corrcoef", abs(v - ref) < 1e-12, f"{v:.8f}"))

    grid = (1.0 + np.arange(256.0)).reshape(16, 16)
    fmap = np.zeros((16, 16))
    fmap[15, 12:] = 1.0  # four fixations on strictly-largest cells
    v = auc_judd_metric(fmap, grid)
    checks.append(("auc strict order", v >= 0.99, f"{v:.4f}>=0.99"))
    v = auc_judd_metric(fmap, fmap)
    # all pixels count as negatives, so the two-point ROC is
    # (0,0) -> (k/P, 1) -> (1,1) with area 1 - k/(2P)
    want = 1.0 - fmap.sum() / (2.0 * fmap.size)
    checks.append(("auc binary two-point", abs(v - want) < 1e-12,
                   f"{v:.7f}~{want:.7f}"))

    gt = np.exp(-((np.arange(16.0)[:, None] - 6) ** 2
                  + (np.arange(16.0)[None, :] - 9) ** 2) / 8.0)
    gt /= gt.sum()
    fmax = np.zeros_like(gt)
    fmax[np.unravel_index(np.argmax(gt), gt.shape)] = 1.0
    gt, fmax = gt[None], fmax[None]  # a batch of one map
    v = float(composite_loss(gt, fmax, gt, weights=DEFAULT_WEIGHTS).data)
    checks.append(("composite identity < 0", v < 0.0, f"{v:.3f}<0"))
    pred0 = T.Tensor(0.25 + 0.5 * SplitMix64(9).uniforms(256).reshape(1, 16, 16),
                     requires_grad=True)
    err, _, _ = T.check_gradient(lambda q: composite_loss(gt, fmax, q), pred0)
    checks.append(("composite grad fd", err < 1e-4, f"rel {err:.2e}<1e-4"))

    # CLI oracle evaluation: ground truth scored against itself, per sample
    root, paths = corpus64
    n_rows, floors = 0, {"cc": 1.0, "sim": 1.0, "kld": 0.0, "auc": 1.0}
    for fold in ("train", "val", "test"):
        out = tmp_path / f"oracle_{fold}.jsonl"
        rc = cli.main(["eval", "--manifest", paths[fold], "--oracle",
                       "--out", str(out)])
        checks.append((f"eval --oracle {fold} exit", rc == 0, f"rc={rc}"))
        n = len(read_manifest(paths[fold]))
        for line in out.read_text(encoding="utf-8").splitlines()[:n]:
            row = json.loads(line)
            floors["cc"] = min(floors["cc"], row["cc"])
            floors["sim"] = min(floors["sim"], row["sim"])
            floors["kld"] = max(floors["kld"], abs(row["kld"]))
            floors["auc"] = min(floors["auc"], row["auc"])
            n_rows += 1
    checks.append((f"oracle cc=1 on {n_rows} samples",
                   floors["cc"] >= 1.0 - 1e-9, f"min {floors['cc']:.9f}"))
    checks.append(("oracle sim=1", floors["sim"] >= 1.0 - 1e-9,
                   f"min {floors['sim']:.9f}"))
    checks.append(("oracle kld<=1e-9", floors["kld"] <= 1e-9,
                   f"max {floors['kld']:.1e}"))
    checks.append(("oracle auc>=0.99", floors["auc"] >= 0.99,
                   f"min {floors['auc']:.4f}"))

    bad = [(n, d) for n, okc, d in checks if not okc]
    verdict(capsys, "metric-oracles", not bad,
            f"{len(checks)} closed-form and oracle checks"
            + (f"; failed: {bad}" if bad else f", all hold "
               f"(oracle floors cc {floors['cc']:.6f}, sim {floors['sim']:.6f}, "
               f"|kld| {floors['kld']:.1e}, auc {floors['auc']:.4f})"))


# ---------------------------------------------------------------------------
# 6. a toy model memorizes 8 samples in 200 steps


def test_overfit_memorization(capsys, tmp_path):
    t0 = time.perf_counter()
    paths = generate_dataset(tmp_path / "data", n_per_domain=2, size=64, seed=42)
    samples = (load_samples(paths["train"]) + load_samples(paths["val"])
               + load_samples(paths["test"]))
    assert len(samples) == 8
    cfg = SumConfig(input_size=64, base_channels=16, seed=0, lr=1e-3,
                    loss_weights=(10.0, -2.0, -1.0, -1.0, 5.0))
    model = Model(cfg)
    opt = Adam(model.params(), lr=cfg.lr)
    idxs = list(range(len(samples)))
    for _ in range(200):
        with T.Tape() as tape:
            loss = batch_loss(model, samples, idxs)
            grads = T.backward(tape, loss)
        opt.step(grads)
    preds = model.predict(np.stack([s.image for s in samples]),
                          [s.label for s in samples])
    ccs = [cc_metric(s.smap, preds[i]) for i, s in enumerate(samples)]
    klds = [kld_metric(s.smap, preds[i]) for i, s in enumerate(samples)]
    elapsed = time.perf_counter() - t0
    cc, kld = float(np.mean(ccs)), float(np.mean(klds))
    ok = cc >= 0.90 and kld <= 0.30 and elapsed < 300
    verdict(capsys, "overfit-memorization", ok,
            f"C=16 S=64, 8 samples, 200 Adam steps, weights (10,-2,-1,-1,5): "
            f"train CC {cc:.3f} >= 0.90, KL {kld:.3f} <= 0.30, "
            f"{elapsed:.0f}s < 300s")


# ---------------------------------------------------------------------------
# 7 + 8. conditioning on the conflicting-target dataset


def conflict_cfg(**kw):
    base = dict(input_size=64, base_channels=8, seed=0, lr=3e-3, batch_size=16,
                epochs=45, patience=100, decay_every=45, decay_factor=1.0,
                conditioning="prompt", placement="decoder")
    base.update(kw)
    return SumConfig(**base)


def _run_conflict(tr, va, **kw):
    t0 = time.perf_counter()
    model = Model(conflict_cfg(**kw))
    train(model, tr, va)
    reports, summary = evaluate(model, va)
    per_dom = {}
    for r, s in zip(reports, va):
        per_dom.setdefault(s.label, []).append(r.cc)
    return {
        "metrics": {m: summary[m]["mean"] for m in ("cc", "sim", "nss", "kld")},
        "per_dom": {d: float(np.mean(v)) for d, v in sorted(per_dom.items())},
        "cc_mean": float(summary["cc"]["mean"]),
        "seconds": time.perf_counter() - t0,
    }


# the conflict runs by name, longest first: two at 45 epochs, then the
# ablation's 13-epoch runs.  The ablation orderings are read in the
# adaptation regime (13 epochs, averaged over 3 seeds): at full convergence
# every variant solves this toy task and the ordering collapses into seed noise
CONFLICT_RUNS = {
    "prompt": {},
    "none": dict(conditioning="none"),
    **{(seed, variant): dict(epochs=13, seed=seed, **kw)
       for seed in (0, 1, 2)
       for variant, kw in (("decoder", {}), ("bottleneck", dict(placement="bottleneck")),
                           ("one-hot", dict(conditioning="one-hot")))},
}

_worker_data = None  # (train, val) samples of a pool worker, set by _pool_worker_start


def _pool_worker_start(tr, va):
    """Each worker trains on one BLAS thread (bit-identical to any other
    count, see test_blas_threads.py), so the pool does not oversubscribe."""
    global _worker_data
    _worker_data = (tr, va)
    if openblas_threads() is not None:
        set_blas_threads(1)


def _pool_run(name, kw):
    """One run in a worker.  Its exception comes back as a RuntimeError that
    names the run and its config, and that pickles whatever the cause's
    constructor takes (NumericAbort's does not rebuild from its message)."""
    try:
        return _run_conflict(*_worker_data, **kw)
    except Exception as exc:
        raise RuntimeError(f"conflict run {name!r} with {kw} failed: {exc!r}") from None


def run_in_pool(tr, va, runs: dict) -> dict:
    """{name: _run_conflict(tr, va, **kw)} for each run of `runs`, in a pool
    of forked processes, one per usable core, started in the order given.
    Forked, the workers inherit the samples instead of unpickling them;
    OpenBLAS shuts its thread pool down around a fork (its pthread_atfork
    handler), so a child starts with none."""
    workers = max(1, min(len(os.sched_getaffinity(0)), len(runs)))
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=ctx, initializer=_pool_worker_start,
                             initargs=(tr, va)) as pool:
        futures = {name: pool.submit(_pool_run, name, kw) for name, kw in runs.items()}
        return {name: fut.result() for name, fut in futures.items()}


@pytest.fixture(scope="session")
def conflict_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("conflict")
    paths = generate_dataset(root, n_per_domain=1, size=64, seed=123,
                             n_conflict_pairs=48)
    tr = load_samples(paths["conflict_train"])
    va = load_samples(paths["conflict_val"])
    done = run_in_pool(tr, va, CONFLICT_RUNS)
    return {"prompt": done["prompt"], "none": done["none"],
            "ablation": [{v: done[(seed, v)] for v in ("decoder", "bottleneck", "one-hot")}
                         for seed in (0, 1, 2)]}


def test_a_failed_pool_run_names_its_config():
    with pytest.raises(RuntimeError, match=r"conflict run 'bad' with \{'epochs': 0\} failed: "
                                           r"ConfigError\('epochs must be >= 1, got 0'\)"):
        run_in_pool([], [], {"bad": dict(epochs=0)})


def test_conditioning_separation(capsys, conflict_runs):
    p, n = conflict_runs["prompt"], conflict_runs["none"]
    doms = sorted(p["per_dom"])
    per_dom_ok = all(p["per_dom"][d] >= 0.80 for d in doms)
    sep = p["cc_mean"] - n["cc_mean"]
    elapsed = p["seconds"] + n["seconds"]
    ok = per_dom_ok and sep >= 0.15 and len(doms) == 2 and elapsed < 1200
    verdict(capsys, "conditioning-separation", ok,
            "prompt val CC per domain "
            + ", ".join(f"{d}:{p['per_dom'][d]:.3f}" for d in doms)
            + f" (each >= 0.80: {per_dom_ok}); prompt {p['cc_mean']:.3f} - "
            f"none {n['cc_mean']:.3f} = {sep:.3f} >= 0.15; "
            f"{elapsed:.0f}s < 1200s")


def test_ablation_ordering(capsys, conflict_runs):
    dec_f, bot_f, cc_p, cc_oh = [], [], [], []
    for by_seed in conflict_runs["ablation"]:
        pair = [(k, by_seed[k]["metrics"]) for k in ("decoder", "bottleneck")]
        fs = {r.name: r.f_score for r in f_scores(pair)}
        dec_f.append(fs["decoder"])
        bot_f.append(fs["bottleneck"])
        cc_p.append(by_seed["decoder"]["cc_mean"])
        cc_oh.append(by_seed["one-hot"]["cc_mean"])
    placement_ok = np.mean(dec_f) >= np.mean(bot_f)
    token_ok = np.mean(cc_p) >= np.mean(cc_oh)
    ok = placement_ok and token_ok
    verdict(capsys, "ablation-ordering", ok,
            f"13-epoch runs x 3 seeds: mean val F-score decoder "
            f"{np.mean(dec_f):+.2f} >= bottleneck {np.mean(bot_f):+.2f}: "
            f"{placement_ok}; mean CC prompt {np.mean(cc_p):.4f} >= one-hot "
            f"{np.mean(cc_oh):.4f}: {token_ok}")


# ---------------------------------------------------------------------------
# 9. two identical runs, byte-identical artifacts


def test_reproducibility(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    assert cli.main(["generate-data", "--out", str(corpus), "--per-domain", "3",
                     "--size", "32", "--seed", "7"]) == 0
    cfg = corpus / "train.json"
    cfg.write_text(json.dumps({
        "input_size": 32, "base_channels": 4, "state_size": 2,
        "encoder_depths": [1, 1, 1, 1], "decoder_depths": [1, 1, 1, 1],
        "token_dim": 16, "epochs": 2, "batch_size": 8, "lr": 1e-4, "seed": 0,
        "train_manifest": "manifest_train.tsv",
        "val_manifest": "manifest_val.tsv",
        "out_dir": "runA",
    }), encoding="utf-8")
    image = str(corpus / read_manifest(corpus / "manifest_val.tsv")[0].image)

    artifacts = {}
    for tag in ("A", "B"):
        out = corpus / f"run{tag}"
        assert cli.main(["train", "--config", str(cfg),
                         "--out-dir", str(out)]) == 0
        ev = out / "eval.jsonl"
        assert cli.main(["eval", "--manifest", str(corpus / "manifest_val.tsv"),
                         "--checkpoint", str(out / "checkpoint.ckpt"),
                         "--out", str(ev)]) == 0
        pgm = out / "pred.pgm"
        assert cli.main(["infer", "--checkpoint", str(out / "checkpoint.ckpt"),
                         "--image", image, "--domain", "ui",
                         "--out", str(pgm)]) == 0
        artifacts[tag] = {
            "checkpoint": (out / "checkpoint.ckpt").read_bytes(),
            "report": (out / "report.json").read_bytes(),
            "epochs": (out / "epochs.jsonl").read_bytes(),
            "eval": ev.read_bytes(),
            "pgm": pgm.read_bytes(),
        }
    differing = [k for k in artifacts["A"] if artifacts["A"][k] != artifacts["B"][k]]
    sizes = {k: len(v) for k, v in artifacts["A"].items()}
    verdict(capsys, "reproducibility", not differing,
            "two identical train/eval/infer runs: checkpoint, report, epoch "
            f"log, eval report, and PGM byte-identical ({sizes})"
            + (f"; DIFFER: {differing}" if differing else ""))
