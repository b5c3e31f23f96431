"""Command-line front end.

Subcommands: generate-data, train, eval, infer, gradcheck, bench-scan.
Every command is deterministic given its inputs (bench-scan timings aside):
no output ever embeds a timestamp.  Exit codes are a stable contract:
0 success, 2 configuration, input-data or I/O problem, 3 numeric abort in
training or scoring, 4 verification failure in gradcheck.  Any other
exception is a fault of the program and propagates with its traceback.

Train/eval configs are strict JSON: the SumConfig fields plus
train_manifest, val_manifest, and out_dir.  Relative paths inside a config
resolve against the config file's own directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .data import (
    CheckpointError,
    ParseError,
    generate_dataset,
    load_checkpoint,
    load_samples,
    read_ppm,
    resize_bilinear,
    save_checkpoint,
    write_pgm,
)
from .gradcheck import SUITES, run_suite
from .metrics import f_scores
from .objective import NormalizationError
from .model import (
    CONDITIONINGS,
    ConfigError,
    Model,
    NumericAbort,
    PLACEMENTS,
    SumConfig,
    evaluate,
    recorded_config,
    score,
    train,
)
from .scan import bench_lengths, fit_loglog_slope
from .tensor import NumericError

DOMAIN_NAMES = ("natural-mouse", "natural-eye", "ecommerce", "ui")

_PATH_KEYS = ("train_manifest", "val_manifest", "out_dir")


def _read_config_doc(path: str) -> dict:
    """A config file's JSON object; ConfigError when the file holds none."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON (nested too deeply)") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return doc


def _config(path: str, doc: dict) -> SumConfig:
    """SumConfig.from_dict(doc), its ConfigError naming the file `path`."""
    try:
        return SumConfig.from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _load_train_config(path: str, overrides: dict) -> tuple:
    """Strict config document -> (SumConfig, resolved path fields)."""
    base = Path(path).parent
    doc = _read_config_doc(path)
    paths = {}
    for key in _PATH_KEYS:
        if key in doc:
            value = doc.pop(key)
            if not isinstance(value, str):
                raise ConfigError(f"{path}: {key} must be a path string, got {value!r}")
            paths[key] = str(base / value)
    for key, value in overrides.items():
        if value is not None:
            doc[key] = value
    cfg = _config(path, doc)
    missing = [k for k in _PATH_KEYS if k not in paths]
    if missing:
        raise ConfigError(f"{path}: missing {', '.join(missing)}")
    return cfg, paths


def _require_size(samples, size: int, manifest: str) -> None:
    for s in samples:
        if s.image.shape[:2] != (size, size):
            raise ConfigError(
                f"{manifest}: sample {s.sid} is {s.image.shape[0]}x{s.image.shape[1]}, "
                f"model expects {size}x{size}; regenerate the dataset")


def _require_domain(model: Model, label: int, where: str) -> None:
    """A conditioned model can predict only the domains it was built with."""
    n = model.cfg.num_domains
    if model.cfg.conditioning != "none" and label >= n:
        raise ConfigError(f"{where}domain {DOMAIN_NAMES[label]} is not one of the "
                          f"checkpoint's {n} domains ({', '.join(DOMAIN_NAMES[:n])})")


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate_data(args) -> int:
    paths = generate_dataset(args.out, n_per_domain=args.per_domain, size=args.size,
                             seed=args.seed, n_conflict_pairs=args.conflict_pairs)
    for fold in sorted(paths):
        print(f"{fold}\t{paths[fold]}")
    return 0


def cmd_train(args) -> int:
    overrides = {
        "placement": args.placement,
        "conditioning": args.conditioning,
        "seed": args.seed,
        "epochs": args.epochs,
        "lr": args.lr,
    }
    if args.kl_literal:
        overrides["kl_literal"] = True
    cfg, paths = _load_train_config(args.config, overrides)
    if args.out_dir is not None:
        paths["out_dir"] = args.out_dir
    train_samples = load_samples(paths["train_manifest"], cfg.num_domains)
    val_samples = load_samples(paths["val_manifest"], cfg.num_domains)
    _require_size(train_samples, cfg.input_size, paths["train_manifest"])
    _require_size(val_samples, cfg.input_size, paths["val_manifest"])

    model = Model(cfg)
    out = Path(paths["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    # each row is on disk once its epoch ends, so a numeric abort keeps them
    with open(out / "epochs.jsonl", "w", encoding="utf-8") as fh:
        def write_row(row):
            fh.write(json.dumps(vars(row), sort_keys=True) + "\n")
            fh.flush()

        report = train(model, train_samples, val_samples, on_epoch=write_row)
    save_checkpoint(out / "checkpoint.ckpt", model.state_arrays())
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    print(f"best_epoch\t{report.best_epoch}")
    print(f"f_score\t{report.f_scores[report.best_epoch]:.6f}")
    print(f"val_cc\t{report.rows[report.best_epoch].val_cc:.6f}")
    print(f"checkpoint\t{out / 'checkpoint.ckpt'}")
    return 0


def _model_from_checkpoint(path: str, config_path: str | None) -> Model:
    """The model a checkpoint holds, built from its recorded config or from
    `config_path`'s; a config that names no dtype takes the recorded one, so
    one checkpoint computes in one dtype either way.  A checkpoint the model
    refuses (a missing parameter, a shape, a non-finite value, a bad config
    record) is a ConfigError that starts with the checkpoint's path."""
    arrays = load_checkpoint(path)
    cfg = None
    if config_path is not None:
        doc = _read_config_doc(config_path)
        for key in _PATH_KEYS:
            doc.pop(key, None)
        cfg = _config(config_path, doc)
    try:
        if cfg is None:
            return Model.from_state(arrays)
        if "dtype" not in doc:
            cfg = dataclasses.replace(cfg, dtype=recorded_config(arrays).dtype)
        return Model.loaded(cfg, arrays)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def cmd_eval(args) -> int:
    samples = load_samples(args.manifest)
    if not samples:
        raise ConfigError(f"{args.manifest}: no samples")
    if args.oracle == bool(args.checkpoint):
        raise ConfigError("eval needs --checkpoint or --oracle, not both" if args.oracle
                          else "eval needs --checkpoint (or --oracle)")
    if args.oracle and args.config:
        raise ConfigError("eval --oracle scores no model, so it takes no --config")
    twice = [c for i, c in enumerate(args.checkpoint) if c in args.checkpoint[:i]]
    if twice:
        raise ConfigError(f"--checkpoint {twice[0]} given more than once")
    lines = []
    summaries = {}
    for ckpt in args.checkpoint or [None]:
        if ckpt is None:  # the oracle: each ground-truth map scored against itself
            run = "oracle"
            reports, summary = score(samples, [s.smap for s in samples])
        else:
            model = _model_from_checkpoint(ckpt, args.config)
            _require_size(samples, model.cfg.input_size, args.manifest)
            for s in samples:
                _require_domain(model, s.label, f"{args.manifest}: sample {s.sid}: ")
            try:
                reports, summary = evaluate(model, samples, model.cfg.batch_size)
            except NumericError as exc:  # a numeric abort in scoring
                print(f"error: {exc}", file=sys.stderr)
                return 3
            run = Path(ckpt).stem if len(args.checkpoint) == 1 else ckpt
        lines += [{"run": run, **r.as_dict()} for r in reports]
        summaries[run] = summary

    payload = {"summaries": summaries}
    if len(summaries) > 1:
        runs = [(name, {k: s[k]["mean"] for k in ("cc", "sim", "nss", "kld")})
                for name, s in summaries.items()]
        payload["f_scores"] = {r.name: r.f_score for r in f_scores(runs)}

    text = "".join(json.dumps(ln, sort_keys=True) + "\n" for ln in lines)
    text += json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_infer(args) -> int:
    model = _model_from_checkpoint(args.checkpoint, None)
    img = read_ppm(args.image)
    h, w = img.shape[:2]
    s = model.cfg.input_size
    resized = img if (h, w) == (s, s) else resize_bilinear(img, (s, s))
    labels = None
    if model.cfg.conditioning != "none":
        labels = np.array([DOMAIN_NAMES.index(args.domain)])
        _require_domain(model, labels[0], "--domain: ")
    try:
        pred = model.predict(resized[None], labels)[0]
    except NumericError as exc:  # a numeric abort in scoring
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if (h, w) != (s, s):
        pred = resize_bilinear(pred, (h, w))
    lo, hi = float(pred.min()), float(pred.max())
    scaled = np.zeros_like(pred) if hi == lo else (pred - lo) / (hi - lo)
    write_pgm(args.out, scaled)
    print(f"wrote\t{args.out}")
    return 0


def cmd_gradcheck(args) -> int:
    rows = run_suite(args.module)
    failures = []
    print("op,rel_err,tol,status")
    for name, err, tol in rows:
        ok = err < tol
        if not ok:
            failures.append(name)
        print(f"{name},{err:.6e},{tol:g},{'ok' if ok else 'FAIL'}")
    if failures:
        print(f"gradcheck failed: {', '.join(failures)}", file=sys.stderr)
        return 4
    return 0


def cmd_bench_scan(args) -> int:
    try:
        lengths = [int(tok) for tok in args.lengths.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(
            f"--lengths must be comma-separated integers, got {args.lengths!r}") from None
    if len(lengths) < 2 or any(n < 2 for n in lengths):
        raise ConfigError(f"need at least two lengths >= 2, got {lengths}")
    if args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    mins = bench_lengths(lengths, runs=args.repeats)
    print("L,seconds")
    for n in lengths:
        print(f"{n},{mins[n]:.6f}")
    print(f"slope,{fit_loglog_slope(lengths, [mins[n] for n in lengths]):.4f}")
    return 0


# ---------------------------------------------------------------------------
# wiring


@functools.cache  # one tree per process: parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sumnet",
                                     description="conditional saliency toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-data", help="render the synthetic corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--per-domain", type=int, required=True)
    g.add_argument("--size", type=int, default=64)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--conflict-pairs", type=int, default=0)
    g.set_defaults(func=cmd_generate_data)

    t = sub.add_parser("train", help="train from a JSON config")
    t.add_argument("--config", required=True)
    t.add_argument("--placement", choices=PLACEMENTS)
    t.add_argument("--conditioning", choices=CONDITIONINGS)
    t.add_argument("--kl-literal", action="store_true")
    t.add_argument("--seed", type=int)
    t.add_argument("--epochs", type=int)
    t.add_argument("--lr", type=float)
    t.add_argument("--out-dir")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="score checkpoints (or the oracle) on a manifest")
    e.add_argument("--manifest", required=True)
    e.add_argument("--checkpoint", action="append", default=[])
    e.add_argument("--config")
    e.add_argument("--oracle", action="store_true")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eval)

    i = sub.add_parser("infer", help="predict one map for one image")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--image", required=True)
    i.add_argument("--domain", required=True, choices=DOMAIN_NAMES)
    i.add_argument("--out", required=True)
    i.set_defaults(func=cmd_infer)

    c = sub.add_parser("gradcheck", help="finite-difference verification")
    c.add_argument("--module", default="all", choices=("all", *SUITES))
    c.set_defaults(func=cmd_gradcheck)

    b = sub.add_parser("bench-scan", help="time the scan kernel across lengths")
    b.add_argument("--lengths", default="1024,2048,4096,8192")
    b.add_argument("--repeats", type=int, default=5)
    b.set_defaults(func=cmd_bench_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ParseError, CheckpointError, NormalizationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
