"""The conditional U-shaped scan network, its optimizer, and training loop.

Layout for input side S and base width C (S divisible by 32, C by 4):

    embed      4x4 tiles -> [S/4, S/4, C]
    enc0..enc3 gated scan stages at widths C, 2C, 4C, 8C,
               with a 2x patch merge (down0..down2) between stages
    dec0..dec3 mirror stages at widths 8C, 4C, 2C, C, with an up-step
               between stages: a 2x pixel shuffle (up0..up2) plus an
               additive projected skip (skip0..skip2) from the matching
               encoder stage
    head       4x pixel shuffle to full resolution, affine to one channel,
               then a sigmoid

Conditioning: per-domain knobs (scales and shifts), one [B, 5] array computed
once per forward and applied inside a placement-dependent subset of blocks --
"bottleneck" modulates only dec0 (the deepest decoder stage), "decoder" all
dec stages, "all-blocks" every block.  With the knob head zero-initialized
the modulated network starts bit-identical to the unconditioned one.

Precision: ``SumConfig.dtype`` is what a model computes in, "float32" by
default or "float64".  The forward, the tape, the scan and Adam all run in
it; the composite loss computes in float64 and hands back its value and
gradient in the prediction's dtype.  The gradient checks (``gradcheck``)
build float64 models: finite differences in float32 would measure rounding.

Every parameter lives in a flat name -> tensor registry; initialization
draws from a stream derived from (config seed, parameter name), so any two
models agree bit-for-bit on every parameter whose name and shape they
share (a shared-scan and an unshared model both have ``<block>.ssm.a_log``,
the direction-stacked [1, C, N] and [4, C, N]).  An Adam built over the
registry packs every tensor's storage into its one flat vector, so code that
writes parameters writes into ``Tensor.data`` in place (``load_state`` and
``train``'s best-epoch restore do) instead of rebinding it.  ``state_arrays``
and ``from_state`` are the checkpoint pair: the registry plus the config as
its exact JSON record, and back.  ``from_state`` (and ``loaded``, for a config
given apart from the checkpoint) builds the registry through the same init
helpers as ``Model(cfg)``, with their draws skipped (``tensor.skip_draws``),
and takes every value from the checkpoint; ``load_state`` refuses a missing
name, a wrong shape or a non-finite value before it writes anything.  The
config record carries the dtype; a record without one loads as float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import blocks as B
from . import tensor as T
from .objective import DEFAULT_WEIGHTS, composite_loss
from .rng import SplitMix64, derive
from .scan import _CHUNK_BYTES
from .tensor import NumericError, ShapeError, Tensor
from .metrics import evaluate_sample, f_scores, summarize

PLACEMENT_STAGES = {  # the stages whose blocks each placement conditions
    "bottleneck": ("dec0",),
    "decoder": ("dec0", "dec1", "dec2", "dec3"),
    "all-blocks": ("enc0", "enc1", "enc2", "enc3", "dec0", "dec1", "dec2", "dec3"),
}
PLACEMENTS = tuple(PLACEMENT_STAGES)
CONDITIONINGS = ("prompt", "one-hot", "none")
DTYPES = ("float32", "float64")  # what a model computes in; gradcheck verifies float64


class ConfigError(ValueError):
    """Rejected model or training configuration."""


class NumericAbort(ArithmeticError):
    """Training hit a non-finite value; carries where it happened."""

    def __init__(self, message: str, epoch: int, batch: int):
        super().__init__(f"{message} (epoch {epoch}, batch {batch})")
        self.epoch = epoch
        self.batch = batch


# ---------------------------------------------------------------------------
# configuration


def _number(v, kind=float):
    """v as a `kind`, never parsed or truncated: True, "64" and, as an int, 64.5 raise."""
    if isinstance(v, (bool, str)) or kind is int and isinstance(v, float) and not v.is_integer():
        raise ValueError(v)
    return kind(v)


def _boolean(v) -> bool:
    """v itself when it is True or False; anything else ("no", 0) raises."""
    if not isinstance(v, bool):
        raise TypeError(v)
    return v


# how SumConfig.__post_init__ coerces each field it normalizes, and what it wants
_FIELD_KINDS = {
    **dict.fromkeys(("input_size", "base_channels", "state_size", "num_domains", "token_dim",
                     "batch_size", "epochs", "patience", "decay_every", "seed"),
                    (lambda v: _number(v, int), "an integer")),
    **dict.fromkeys(("lr", "decay_factor"), (_number, "a number")),
    **dict.fromkeys(("encoder_depths", "decoder_depths"),
                    (lambda v: tuple(_number(d, int) for d in v), "a list of integers")),
    "loss_weights": (lambda v: tuple(map(_number, v)), "a list of numbers"),
    **dict.fromkeys(("share_scan_params", "kl_literal"), (_boolean, "true or false")),
}


@dataclass
class SumConfig:
    input_size: int = 64
    base_channels: int = 16
    encoder_depths: tuple = (2, 2, 2, 2)
    decoder_depths: tuple = (2, 2, 2, 1)
    state_size: int = 8
    num_domains: int = 4
    token_dim: int = 128
    placement: str = "decoder"
    conditioning: str = "prompt"
    share_scan_params: bool = False
    loss_weights: tuple = DEFAULT_WEIGHTS
    kl_literal: bool = False
    lr: float = 1e-4
    batch_size: int = 16
    epochs: int = 15
    patience: int = 4
    decay_every: int = 4
    decay_factor: float = 0.1
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        for name, (coerce, wanted) in _FIELD_KINDS.items():
            value = getattr(self, name)
            try:
                setattr(self, name, coerce(value))
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{name} must be {wanted}, got {value!r}") from None
        self.validate()

    def validate(self) -> None:
        if self.input_size < 32 or self.input_size % 32:
            raise ConfigError(f"input_size {self.input_size} must be a positive multiple of 32")
        if self.base_channels < 4 or self.base_channels % 4:
            raise ConfigError(f"base_channels {self.base_channels} must be a multiple of 4")
        if len(self.encoder_depths) != 4 or any(d < 1 for d in self.encoder_depths):
            raise ConfigError(f"encoder_depths must be 4 positive ints, got {self.encoder_depths}")
        if len(self.decoder_depths) != 4 or any(d < 1 for d in self.decoder_depths):
            raise ConfigError(f"decoder_depths must be 4 positive ints, got {self.decoder_depths}")
        if self.state_size < 1:
            raise ConfigError(f"state_size {self.state_size} must be positive")
        if self.num_domains < 1:
            raise ConfigError(f"num_domains {self.num_domains} must be positive")
        if self.token_dim < self.num_domains:
            raise ConfigError(f"token_dim {self.token_dim} below num_domains {self.num_domains}")
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"placement {self.placement!r} not in {PLACEMENTS}")
        if self.conditioning not in CONDITIONINGS:
            raise ConfigError(f"conditioning {self.conditioning!r} not in {CONDITIONINGS}")
        if len(self.loss_weights) != 5:
            raise ConfigError(f"loss_weights needs 5 entries, got {len(self.loss_weights)}")
        if not self.lr > 0.0:
            raise ConfigError(f"lr {self.lr} must be positive")
        for name in ("batch_size", "epochs", "patience", "decay_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ConfigError(f"decay_factor {self.decay_factor} must be in (0, 1]")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be non-negative")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype {self.dtype!r} not in {DTYPES}")

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "SumConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        try:
            return cls(**d)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# parameter registry


def _collect_tensors(prefix: str, obj, out: dict) -> None:
    """Flatten nested weight dataclasses into name -> tensor, each tensor
    named by its field path, e.g. ``enc0.b0.ssm.a_log``; fixed tensors (a
    one-hot token table) too."""
    if isinstance(obj, Tensor):
        out[prefix] = obj
    elif is_dataclass(obj):
        for f in fields(obj):
            _collect_tensors(f"{prefix}.{f.name}", getattr(obj, f.name), out)


def recorded_config(arrays: dict) -> SumConfig:
    """The config a ``state_arrays`` checkpoint records; a bad record raises
    a ConfigError that says what is wrong with it."""
    if "config" not in arrays:
        raise ConfigError("checkpoint lacks its config record")
    record = np.asarray(arrays["config"], dtype=np.float64)
    if record.ndim != 1:
        raise ConfigError(f"checkpoint config record has shape {record.shape}, not 1-D")
    bad = np.flatnonzero((record < 0) | (record > 255) | (record != np.floor(record)))
    if bad.size:
        raise ConfigError(f"checkpoint config record element {bad[0]} is "
                          f"{float(record[bad[0]])!r}, not a byte in 0..255")
    try:
        doc = json.loads(record.astype(np.uint8).tobytes().decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"checkpoint config record is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"checkpoint config record is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("checkpoint config record is not a JSON object")
    doc.setdefault("dtype", "float64")  # a record without one holds a float64 model
    try:
        return SumConfig.from_dict(doc)
    except ConfigError as exc:
        raise ConfigError(f"checkpoint config record: {exc}") from None


# ---------------------------------------------------------------------------
# model


class Model:
    """Named-parameter network; forward is a pure function of the registry.

    Every tensor is drawn in float64 and then cast once to ``cfg.dtype``, so
    a float32 model starts from the float64 model's values rounded, and
    computes in float32 from there on.
    """

    def __init__(self, cfg: SumConfig):
        cfg.validate()
        self.cfg = cfg
        self.dtype = np.dtype(cfg.dtype)
        c, seed = cfg.base_channels, cfg.seed
        self.embed = B.init_patch_embed(c, seed, "embed")
        self.enc = []
        self.down = []
        for i in range(4):
            width = c * (1 << i)
            self.enc.append([
                B.init_vss(width, cfg.state_size, seed, f"enc{i}.b{j}",
                           shared_scan=cfg.share_scan_params)
                for j in range(cfg.encoder_depths[i])
            ])
            if i < 3:
                self.down.append(B.init_downsample(width, seed, f"down{i}"))
        self.dec = []
        self.up = []
        self.skip = []
        for j in range(4):
            width = c * (1 << (3 - j))
            self.dec.append([
                B.init_vss(width, cfg.state_size, seed, f"dec{j}.b{k}",
                           shared_scan=cfg.share_scan_params)
                for k in range(cfg.decoder_depths[j])
            ])
            if j < 3:
                self.up.append(B.init_patch_expand(width, 2, seed, f"up{j}"))
                self.skip.append(B.init_linear(width // 2, width // 2, seed, f"skip{j}"))
        self.head_expand = B.init_patch_expand(c, 4, seed, "head.expand")
        self.head_out = B.init_linear(c // 4, 1, seed, "head.out")
        self.cond = None
        if cfg.conditioning != "none":
            self.cond = B.init_conditioner(cfg.num_domains, cfg.token_dim, seed,
                                           one_hot=cfg.conditioning == "one-hot")
        tensors = self._tensors()
        with np.errstate(all="ignore"):  # a skip_draws build casts unset memory
            for t in tensors.values():
                t.data = t.data.astype(self.dtype, copy=False)
        self._params = {name: t for name, t in tensors.items() if t.requires_grad}
        self._conditioned = (set() if cfg.conditioning == "none"
                             else set(PLACEMENT_STAGES[cfg.placement]))

    def _tensors(self) -> dict:
        """Every tensor of the model by name, the fixed ones too."""
        parts = [("embed", self.embed)]
        parts += [(f"enc{i}.b{j}", w) for i, st in enumerate(self.enc) for j, w in enumerate(st)]
        parts += [(f"down{i}", d) for i, d in enumerate(self.down)]
        parts += [(f"dec{j}.b{k}", w) for j, st in enumerate(self.dec) for k, w in enumerate(st)]
        for j in range(3):
            parts += [(f"up{j}", self.up[j]), (f"skip{j}", self.skip[j])]
        parts += [("head.expand", self.head_expand), ("head.out", self.head_out),
                  ("cond", self.cond)]  # no entries without a conditioner (cond None)
        out: dict = {}
        for prefix, obj in parts:
            _collect_tensors(prefix, obj, out)
        return out

    # -- registry views ----------------------------------------------------

    def params(self) -> dict:
        return dict(self._params)

    def num_parameters(self) -> int:
        return sum(t.size for t in self._params.values())

    def state_arrays(self) -> dict:
        """The registry plus a "config" record: the UTF-8 bytes of the config's
        sorted-key JSON, one byte per element, which float32 storage keeps exact."""
        out = {name: t.data.copy() for name, t in self._params.items()}
        record = json.dumps(self.cfg.to_dict(), sort_keys=True).encode("utf-8")
        out["config"] = np.frombuffer(record, dtype=np.uint8).astype(np.float64)
        return out

    @classmethod
    def from_state(cls, arrays: dict) -> "Model":
        """Inverse of ``state_arrays``: the recorded config's model, loaded."""
        return cls.loaded(recorded_config(arrays), arrays)

    @classmethod
    def loaded(cls, cfg: SumConfig, arrays: dict) -> "Model":
        """cfg's model with every parameter taken from `arrays`.

        Construction runs the same init helpers as ``Model(cfg)`` under
        ``T.skip_draws``, so each parameter is allocated but never drawn, and
        ``load_state`` overwrites every one of them after its checks.  A
        rejected checkpoint raises before the model is returned.
        """
        with T.skip_draws():
            model = cls(cfg)
        model.load_state(arrays)
        return model

    def load_state(self, arrays: dict) -> None:
        """Copy checkpoint arrays into the parameters, in place, in the
        model's dtype (exact for the float32 values a checkpoint stores).

        Every name, shape and value is checked before anything is written, so
        a rejected checkpoint leaves the model as it was: a value must be
        finite in the model's dtype, tested in one pass over all of them.
        The copy goes into each existing ``Tensor.data``, so parameters
        packed into an Adam's flat vector stay packed.
        """
        missing = sorted(set(self._params) - set(arrays))
        if missing:
            raise ConfigError(f"checkpoint lacks parameters: {', '.join(missing[:4])}")
        for name, t in self._params.items():
            shape = np.shape(arrays[name])
            if shape != t.data.shape:
                raise ConfigError(
                    f"shape mismatch for {name}: checkpoint {shape}, model {t.data.shape}")
        with np.errstate(over="ignore"):  # a value past the dtype's range casts to inf
            cast = {name: np.asarray(arrays[name], dtype=self.dtype) for name in self._params}
        if not np.isfinite(np.concatenate(list(cast.values()), axis=None)).all():
            for name, value in cast.items():  # find the first bad value to name it
                bad = np.argwhere(~np.isfinite(value))
                if len(bad):
                    at = tuple(map(int, bad[0]))
                    given = float(np.asarray(arrays[name])[at])
                    raise ConfigError(f"checkpoint parameter {name} is {given!r} "
                                      f"at index {at}, not finite in {self.dtype}")
        for name, t in self._params.items():
            np.copyto(t.data, cast[name])

    # -- forward -----------------------------------------------------------

    def _stage(self, x, stage_name: str, weights, knobs):
        if stage_name not in self._conditioned:
            knobs = None
        for w in weights:
            x = B.gated_block(x, w, knobs)
        return x

    def forward(self, images, labels=None) -> Tensor:
        """[B, S, S, 3] images (+ labels unless unconditioned) -> [B, S, S],
        in the model's dtype.  Images of another dtype are cast once, as
        data: a gradient does not reach a cast copy's source.

        In checked mode the boundaries are checked, not every op: a
        non-finite pixel raises NumericError naming its image's batch index,
        and the body runs under ``T.checked_at_boundary``, so a non-finite
        prediction is replayed with per-op checks on and the NumericError
        names the op that produced it.
        """
        imgs = T.as_tensor(images)
        if imgs.data.dtype != self.dtype:
            imgs = Tensor(imgs.data.astype(self.dtype))
        shape = (1,) + imgs.shape if imgs.ndim == 3 else imgs.shape
        s = self.cfg.input_size
        if len(shape) != 4 or shape[1:] != (s, s, 3):
            raise ShapeError(f"expected [B, {s}, {s}, 3] images, got {shape}")
        batch = shape[0]
        if T.checked_mode():
            finite = np.isfinite(imgs.data.reshape(shape)).all(axis=(1, 2, 3))
            if not finite.all():
                raise NumericError(f"input image {int(np.argmin(finite))} "
                                   "has a non-finite pixel")
        if imgs.ndim == 3:  # one image, as data: a batch of one
            imgs = imgs.data.reshape(shape)
        if self.cfg.conditioning != "none":
            if labels is None:
                raise ConfigError("conditioned model needs domain labels")
            if np.size(labels) != batch:
                raise ShapeError(f"{np.size(labels)} labels for batch of {batch}")
        return T.checked_at_boundary("forward", self._forward, imgs, labels)

    def _forward(self, imgs, labels) -> Tensor:
        knobs = None if self.cond is None else B.conditioner(self.cond, labels)

        x = B.patch_embed(imgs, self.embed)
        skips = []
        for i in range(4):
            x = self._stage(x, f"enc{i}", self.enc[i], knobs)
            if i < 3:
                skips.append(x)
                x = B.downsample(x, self.down[i])
        for j in range(4):
            x = self._stage(x, f"dec{j}", self.dec[j], knobs)
            if j < 3:
                x = B.up_step(x, skips[2 - j], self.up[j], self.skip[j])
        return B.head(x, self.head_expand, self.head_out)

    def predict(self, images, labels=None) -> np.ndarray:
        """Forward pass without recording, even under an active tape, so every
        primitive runs with keep=False and the scan keeps no full-size state;
        returns plain arrays."""
        with T._suspend_recording():
            return self.forward(images, labels).data


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam over one contiguous vector that holds every parameter.

    Construction packs the tensors in sorted-name order into ``flat``, in
    the parameters' dtype (the wider one if they mix), and rebinds each
    ``Tensor.data`` to a reshaped view of its slot; ``m`` and ``v`` are
    flat vectors of the same length and dtype.  From then on a parameter
    must be written in place (``np.copyto``, ``out=``): a tensor whose
    ``.data`` was rebound no longer reaches ``flat``, and ``step`` raises a
    RuntimeError naming it.

    ``step`` groups consecutive slots into blocks within the scan's cache
    budget, ``scan._CHUNK_BYTES`` (a larger parameter is a block of its own),
    gathers a block's gradients into one reused buffer and updates its
    slices of ``m``, ``v`` and ``flat`` with ``out=``.  Every element goes
    through the same IEEE operations in the same order as the per-array
    update -- ``(1-b2)*g`` then ``*g``, ``lr*m_hat`` then
    ``/(sqrt(v_hat)+eps)`` -- and none of them mixes elements, so the result
    is bit-identical to it, whatever the block size or dict order.
    """

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.names = sorted(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        sizes = [params[n].size for n in self.names]
        dtype = np.result_type(*[params[n].data.dtype for n in self.names] or [np.float64])
        self.flat = np.empty(sum(sizes), dtype=dtype)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        budget = _CHUNK_BYTES // dtype.itemsize  # elements per block
        spans, hi = [], 0  # [lo, hi, names] of each block
        for n, size in zip(self.names, sizes):
            if not spans or hi + size - spans[-1][0] > budget:
                spans.append([hi, hi, []])
            hi += size
            spans[-1][1] = hi
            spans[-1][2].append(n)
        width = max((hi - lo for lo, hi, _ in spans), default=0)
        gbuf = np.empty(width, dtype=dtype)  # a block's gradients, then lr * m_hat
        work = np.empty_like(gbuf)
        self._slots = []  # (name, tensor, its view of flat)
        self._blocks = []  # (gradient slots, m, v, flat, g, work) per block
        for lo, hi, names in spans:
            gslots, at = [], 0
            for n in names:
                t = params[n]
                view = self.flat[lo + at : lo + at + t.size].reshape(t.shape)
                np.copyto(view, t.data)
                t.data = view
                self._slots.append((n, t, view))
                gslots.append((t, gbuf[at : at + t.size].reshape(t.shape)))
                at += t.size
            self._blocks.append((gslots, self.m[lo:hi], self.v[lo:hi], self.flat[lo:hi],
                                 gbuf[: hi - lo], work[: hi - lo]))

    def step(self, grads: dict) -> None:
        """Apply one update from {tensor: gradient} as returned by backward."""
        for n, t, view in self._slots:
            if t.data is not view:
                raise RuntimeError(f"parameter {n} was rebound and no longer views "
                                   "Adam.flat; write parameters in place")
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        for gslots, m, v, p, g, work in self._blocks:
            for t, slot in gslots:
                tg = grads.get(t)
                if tg is None:
                    slot.fill(0.0)
                else:
                    np.copyto(slot, tg)
            np.multiply(m, b1, out=m)
            np.multiply(g, 1.0 - b1, out=work)
            np.add(m, work, out=m)
            np.multiply(v, b2, out=v)
            np.multiply(g, 1.0 - b2, out=work)
            np.multiply(work, g, out=work)
            np.add(v, work, out=v)
            np.divide(m, b1t, out=g)
            np.multiply(g, lr, out=g)
            np.divide(v, b2t, out=work)
            np.sqrt(work, out=work)
            np.add(work, eps, out=work)
            np.divide(g, work, out=g)
            np.subtract(p, g, out=p)


# ---------------------------------------------------------------------------
# training


@dataclass
class EpochRow:
    epoch: int
    lr: float
    train_loss: float
    val_cc: float
    val_kld: float
    val_sim: float
    val_nss: float
    val_auc: float
    val_excluded: int

    def run_metrics(self) -> dict:
        return {"cc": self.val_cc, "sim": self.val_sim, "nss": self.val_nss,
                "kld": self.val_kld}


@dataclass
class TrainingReport:
    """Everything a run produced, with no wall-clock fields: two identical
    configurations must serialize to identical bytes."""

    config: dict
    num_parameters: int
    rows: list = field(default_factory=list)
    f_scores: list = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "num_parameters": self.num_parameters,
            "rows": [vars(r) for r in self.rows],
            "f_scores": self.f_scores,
            "best_epoch": self.best_epoch,
            "stopped_early": self.stopped_early,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _batches(n: int, size: int, seed: int, epoch: int):
    order = list(range(n))
    SplitMix64(derive(seed, "train-shuffle", str(epoch))).shuffle(order)
    for start in range(0, n, size):
        yield order[start : start + size]


def _stack_batch(samples, idxs):
    imgs = np.stack([samples[i].image for i in idxs])
    labels = np.array([samples[i].label for i in idxs], dtype=np.int64)
    return imgs, labels


def batch_loss(model: Model, samples, idxs) -> Tensor:
    """Mean composite loss over one batch: the mean of the per-sample losses.

    Checked at one boundary, the loss: the forward inside it runs with
    per-op checks off and skips its input-image check, and a non-finite
    loss is replayed with every check on, which names the non-finite input
    image or the op.
    """
    imgs, labels = _stack_batch(samples, idxs)
    smaps = np.stack([samples[i].smap for i in idxs])
    fmaps = np.stack([samples[i].fmap for i in idxs])

    def loss():
        return composite_loss(smaps, fmaps, model.forward(imgs, labels),
                              weights=model.cfg.loss_weights, kl_literal=model.cfg.kl_literal)

    return T.checked_at_boundary("batch loss", loss)


def score(samples, preds):
    """Metric reports, in sample order, and their summary: each prediction
    scored against its own sample's maps."""
    reports = [evaluate_sample(p, s.smap, s.fmap, s.sid) for s, p in zip(samples, preds)]
    return reports, summarize(reports)


def evaluate(model: Model, samples, batch_size: int = 16):
    """`score` of the model's predictions, made in batches without recording."""
    preds = []
    for start in range(0, len(samples), batch_size):
        imgs, labels = _stack_batch(samples, range(start, min(start + batch_size, len(samples))))
        preds.extend(model.predict(imgs, labels))
    return score(samples, preds)


def train(model: Model, train_samples, val_samples, on_epoch=None) -> TrainingReport:
    """Adam + stepped decay + patience stopping on the re-ranked F-score.

    After every epoch all epochs so far are re-ranked together (min-max
    scaling is relative, so adding a run can move earlier scores); the best
    epoch is the argmax, ties to the earliest, and training stops once the
    current epoch trails it by the patience.  The best epoch's parameters
    are restored before returning.  `on_epoch(row)`, when given, receives
    each epoch's EpochRow as soon as the epoch is scored, so a caller can
    persist it before a later epoch aborts.
    """
    cfg = model.cfg
    if not train_samples:
        raise ConfigError("no training samples")
    if not val_samples:
        raise ConfigError("no validation samples")
    opt = Adam(model.params(), cfg.lr)
    param_names = {t: n for n, t in opt.params.items()}
    report = TrainingReport(config=cfg.to_dict(), num_parameters=model.num_parameters())
    snapshots = []
    rows = []
    best = -1
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr * cfg.decay_factor ** (epoch // cfg.decay_every)
        losses = []
        for b, idxs in enumerate(_batches(len(train_samples), cfg.batch_size,
                                          cfg.seed, epoch)):
            try:
                with T.Tape() as tape:
                    loss = batch_loss(model, train_samples, idxs)
                    value = float(loss.data)
                    if not np.isfinite(value):
                        raise NumericAbort(f"non-finite loss {value}", epoch, b)
                    # a value squashed in the forward (abar = exp(-inf) = 0)
                    # can meet inf here; the finiteness test below names it
                    with np.errstate(invalid="ignore", over="ignore"):
                        grads = T.backward(tape, loss)
            except NumericError as exc:
                raise NumericAbort(str(exc), epoch, b) from exc
            for t, g in grads.items():
                if not np.all(np.isfinite(g)):
                    # a non-finite value squashed inside the forward can
                    # surface here; a checked replay names its op
                    try:
                        T.replay_checked(batch_loss, model, train_samples, idxs)
                    except NumericError as exc:
                        raise NumericAbort(str(exc), epoch, b) from exc
                    where = param_names.get(t, "a leaf outside the registry")
                    raise NumericAbort(f"non-finite gradient in {where}", epoch, b)
            opt.step(grads)
            losses.append(value)

        _, summary = evaluate(model, val_samples, cfg.batch_size)
        excluded = sum(summary[k]["excluded"] for k in ("cc", "kld", "sim", "nss", "auc"))
        rows.append(EpochRow(
            epoch=epoch,
            lr=opt.lr,
            train_loss=float(np.mean(losses)),
            val_cc=_mean_or_nan(summary, "cc"),
            val_kld=_mean_or_nan(summary, "kld"),
            val_sim=_mean_or_nan(summary, "sim"),
            val_nss=_mean_or_nan(summary, "nss"),
            val_auc=_mean_or_nan(summary, "auc"),
            val_excluded=excluded,
        ))
        if on_epoch is not None:
            on_epoch(rows[-1])
        snapshots.append(opt.flat.copy())
        scores = f_scores([(f"epoch{r.epoch}", r.run_metrics()) for r in rows])
        best = int(np.argmax([s.f_score for s in scores]))
        if epoch - best >= cfg.patience:
            report.stopped_early = True
            break

    report.rows = rows
    report.f_scores = [s.f_score for s in scores]
    report.best_epoch = best
    np.copyto(opt.flat, snapshots[best])
    return report


def _mean_or_nan(summary: dict, key: str) -> float:
    mean = summary[key]["mean"]
    return float("nan") if mean is None else float(mean)
