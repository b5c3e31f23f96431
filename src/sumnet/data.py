"""Synthetic multi-domain scenes, file formats, and checkpoints.

Scenes are procedural: each domain renders a distinctive RGB image and an
analytic ground-truth map that is an explicit mixture of 2-D Gaussians,
normalized to unit mass.  Fixations are drawn from the map without
replacement, proportionally to cell mass.  Gaussian extents are kept tight
(small fractions of the image side) so that a map evaluated against its own
fixations separates cleanly from the background.

Files are binary PPM (P6) for images and PGM (P5) for maps and fixation
grids, maxval 255; value semantics are v/255.  Manifests are UTF-8, LF,
one `image<TAB>map<TAB>fix<TAB>domain_code` row per sample with paths
relative to the manifest location.

Checkpoints: magic "SUMCKPT1", little-endian u32 array count, then per
array (u16 name length, UTF-8 name, u8 ndim, u32 dims, float32 LE payload)
with names sorted, and a trailing CRC32 of all preceding bytes.  Payloads
are float32, so a float32 model (the default) round-trips bit for bit;
saving a float64 model's parameters rounds them once, and a save/load/save
cycle is byte-stable.  A model checkpoint holds the parameter registry plus
a "config" record: the config's JSON as UTF-8 bytes, one byte per element,
which float32 stores exactly (``Model.state_arrays`` / ``Model.from_state``);
the record names the model's dtype.  ``save_checkpoint`` writes a temporary
file beside the target and renames it over the target, so a write that
fails part way leaves the previous checkpoint as it was.
``load_checkpoint`` checks the magic and the CRC, then reads each header
field with ``struct.unpack_from`` at a running offset, bounds-tested before
every read; it checks layout, not values: a finite-valued, well-shaped
registry is ``Model.load_state``'s check.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blocks import DomainLabel
from .model import ConfigError
from .rng import SplitMix64, derive

FIXATIONS_PER_SAMPLE = 20


class ParseError(ValueError):
    """Malformed image file or manifest; message carries the location."""


class CheckpointError(ValueError):
    """Malformed or corrupt checkpoint file."""


# ---------------------------------------------------------------------------
# PPM / PGM


def _write_netpbm(path, magic: bytes, arr: np.ndarray) -> None:
    h, w = arr.shape[:2]
    payload = np.rint(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode("ascii") + payload)


def write_ppm(path, img: np.ndarray) -> None:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ParseError(f"write_ppm expects [H, W, 3], got {img.shape}")
    _write_netpbm(path, b"P6", img)


def write_pgm(path, gray: np.ndarray) -> None:
    gray = np.asarray(gray, dtype=np.float64)
    if gray.ndim != 2:
        raise ParseError(f"write_pgm expects [H, W], got {gray.shape}")
    _write_netpbm(path, b"P5", gray)


class _NetpbmReader:
    """Header tokenizer that tracks byte offsets for error messages."""

    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.pos = 0
        self.path = path

    def fail(self, why: str):
        raise ParseError(f"{self.path}: {why} at byte {self.pos}")

    def skip_space(self) -> None:
        while self.pos < len(self.blob):
            c = self.blob[self.pos : self.pos + 1]
            if c == b"#":
                nl = self.blob.find(b"\n", self.pos)
                self.pos = len(self.blob) if nl < 0 else nl + 1
            elif c.isspace():
                self.pos += 1
            else:
                return

    def token(self) -> bytes:
        self.skip_space()
        start = self.pos
        while self.pos < len(self.blob) and not self.blob[self.pos : self.pos + 1].isspace():
            self.pos += 1
        if self.pos == start:
            self.fail("unexpected end of header")
        return self.blob[start : self.pos]

    def int_token(self, what: str) -> int:
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            self.fail(f"bad {what} {tok!r}")


def _read_netpbm(path, magic: bytes, channels: int) -> np.ndarray:
    blob = Path(path).read_bytes()
    r = _NetpbmReader(blob, path)
    if r.token() != magic:
        r.pos = 0
        r.fail(f"not a {magic.decode()} file")
    w = r.int_token("width")
    h = r.int_token("height")
    maxval = r.int_token("maxval")
    if w < 1 or h < 1:
        r.fail(f"bad dimensions {w}x{h}")
    if maxval != 255:
        r.fail(f"unsupported maxval {maxval}")
    # exactly one whitespace byte separates header and payload
    if r.pos >= len(blob) or not blob[r.pos : r.pos + 1].isspace():
        r.fail("missing separator before payload")
    r.pos += 1
    need = w * h * channels
    payload = blob[r.pos :]
    if len(payload) != need:
        r.fail(f"payload is {len(payload)} bytes, expected {need}")
    arr = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    return arr.reshape((h, w, channels)) if channels > 1 else arr.reshape((h, w))


def read_ppm(path) -> np.ndarray:
    return _read_netpbm(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    return _read_netpbm(path, b"P5", 1)


# ---------------------------------------------------------------------------
# resize


def resize_bilinear(arr: np.ndarray, out_hw) -> np.ndarray:
    """Bilinear resample (align_corners=False convention, edges clamped)."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim not in (2, 3):
        raise ParseError(f"resize expects [H, W] or [H, W, C], got {arr.shape}")
    th, tw = (int(out_hw), int(out_hw)) if np.isscalar(out_hw) else map(int, out_hw)
    if th < 1 or tw < 1:
        raise ParseError(f"bad target size {th}x{tw}")
    h, w = arr.shape[:2]
    ys = np.clip((np.arange(th) + 0.5) * (h / th) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(tw) + 0.5) * (w / tw) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).reshape(-1, 1)
    wx = (xs - x0).reshape(1, -1)
    if arr.ndim == 3:
        wy = wy[..., None]
        wx = wx[..., None]
    top = arr[y0][:, x0] * (1 - wx) + arr[y0][:, x1] * wx
    bot = arr[y1][:, x0] * (1 - wx) + arr[y1][:, x1] * wx
    return top * (1 - wy) + bot * wy


# ---------------------------------------------------------------------------
# analytic maps and fixations


def gaussian_mixture_map(size: int, components, floor_frac: float = 1.0 / 32.0) -> np.ndarray:
    """Unit-mass map from (weight, cy, cx, sy, sx) components (pixel units).

    Values below floor_frac of the peak are zeroed before the final
    normalization, giving the map compact support: fixations sampled from it
    can never land on a cell fainter than that fraction, which keeps the
    map-vs-own-fixations ROC tight.
    """
    yy, xx = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    acc = np.zeros((size, size))
    for weight, cy, cx, sy, sx in components:
        g = np.exp(-((yy - cy) ** 2 / (2.0 * sy * sy) + (xx - cx) ** 2 / (2.0 * sx * sx)))
        total = g.sum()
        if total <= 0.0:
            raise ValueError("degenerate gaussian component")
        acc += float(weight) * g / total
    acc[acc < floor_frac * acc.max()] = 0.0
    acc /= acc.sum()
    return acc


def sample_fixations(smap: np.ndarray, k: int, seed: int) -> np.ndarray:
    """k distinct cells drawn without replacement, proportionally to mass."""
    flat = np.asarray(smap, dtype=np.float64).ravel().copy()
    if flat.min() < 0.0 or flat.sum() <= 0.0:
        raise ValueError("fixation sampling needs a non-negative map with mass")
    k = min(int(k), int((flat > 0.0).sum()))
    rng = SplitMix64(seed)
    out = np.zeros_like(flat)
    for _ in range(k):
        cum = np.cumsum(flat)
        u = rng.uniform(0.0, cum[-1])
        idx = int(np.searchsorted(cum, u, side="right"))
        idx = min(idx, flat.size - 1)
        out[idx] = 1.0
        flat[idx] = 0.0
    return out.reshape(np.asarray(smap).shape)


# ---------------------------------------------------------------------------
# scene rendering


def _rng_for(seed: int, sid: str) -> SplitMix64:
    return SplitMix64(derive(seed, "scene", sid))


def _gradient_background(size: int, rng: SplitMix64) -> np.ndarray:
    top = np.array([rng.uniform(0.2, 0.8) for _ in range(3)])
    bottom = np.array([rng.uniform(0.2, 0.8) for _ in range(3)])
    t = np.linspace(0.0, 1.0, size).reshape(-1, 1, 1)
    return top * (1 - t) + bottom * t + np.zeros((size, size, 3))


def _draw_blob(img: np.ndarray, cy: float, cx: float, radius: float, color) -> None:
    size = img.shape[0]
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    mask = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * radius * radius))
    img += mask[..., None] * (np.asarray(color) - img)


def _natural_scene(size: int, rng: SplitMix64, wide: bool):
    img = _gradient_background(size, rng)
    # mouse traces (wide=True) spread more than eye fixations: the sigma
    # ranges are disjoint so the ordering holds for every sample
    k = 1 + rng.next_below(2) if wide else 2 + rng.next_below(2)
    lo, hi = (0.018, 0.024) if wide else (0.012, 0.017)
    comps = []
    for _ in range(k):
        cy = rng.uniform(0.18, 0.82) * size
        cx = rng.uniform(0.18, 0.82) * size
        sigma = rng.uniform(lo, hi) * size
        color = [rng.uniform(0.0, 1.0) for _ in range(3)]
        _draw_blob(img, cy, cx, 2.5 * sigma, color)
        comps.append((1.0 / k, cy, cx, sigma, sigma))
    return img, gaussian_mixture_map(size, comps)


def _ecommerce_scene(size: int, rng: SplitMix64):
    img = np.full((size, size, 3), 0.92)
    # product distractor: a flat colored box that carries no mass in the map
    by = int(rng.uniform(0.55, 0.75) * size)
    bx = int(rng.uniform(0.15, 0.55) * size)
    bh = max(2, size // 6)
    img[by : by + bh, bx : bx + bh] = [rng.uniform(0.2, 0.9) for _ in range(3)]
    # text band: dark stripes, the attention target
    y0 = int(rng.uniform(0.12, 0.35) * size)
    band_h = max(2, size // 10)
    band = img[y0 : y0 + band_h]
    stripes = (np.arange(size) // 2) % 2 == 0
    band[:, stripes] = 0.15
    band[:, ~stripes] = 0.55
    cy = y0 + band_h / 2.0
    cx = rng.uniform(0.3, 0.7) * size
    comps = [(1.0, cy, cx, 0.015 * size, 0.042 * size)]
    return img, gaussian_mixture_map(size, comps)


def _ui_scene(size: int, rng: SplitMix64):
    img = np.full((size, size, 3), 0.85)
    cells = 4
    step = size // cells
    for gy in range(cells):
        for gx in range(cells):
            v = rng.uniform(0.55, 0.75)
            img[gy * step : (gy + 1) * step, gx * step : (gx + 1) * step] = v
    img[::step] = 0.3
    img[:, ::step] = 0.3
    # accent on the top-left tile: layouts anchor attention there
    img[1 : step, 1 : step] = [0.15, 0.35, 0.8]
    sec_gy, sec_gx = 1 + rng.next_below(cells - 1), 1 + rng.next_below(cells - 1)
    img[sec_gy * step + 1 : (sec_gy + 1) * step, sec_gx * step + 1 : (sec_gx + 1) * step] = [
        0.8, 0.45, 0.15]
    sigma = 0.016 * size
    comps = [
        (0.75, step / 2.0, step / 2.0, sigma, sigma),
        (0.25, (sec_gy + 0.5) * step, (sec_gx + 0.5) * step, sigma, sigma),
    ]
    return img, gaussian_mixture_map(size, comps)


def render_scene(domain: int, size: int, seed: int, sid: str):
    """One (image, map) pair for a domain; deterministic in (seed, sid)."""
    rng = _rng_for(seed, sid)
    domain = int(domain)
    if domain == DomainLabel.NATURAL_MOUSE:
        return _natural_scene(size, rng, wide=True)
    if domain == DomainLabel.NATURAL_EYE:
        return _natural_scene(size, rng, wide=False)
    if domain == DomainLabel.ECOMMERCE:
        return _ecommerce_scene(size, rng)
    if domain == DomainLabel.UI:
        return _ui_scene(size, rng)
    raise ValueError(f"unknown domain code {domain}")


def render_conflict_scene(size: int, seed: int, sid: str):
    """One image with two rival targets and the two domain-dependent maps.

    Returns (image, {eye_domain: map, ecommerce_domain: map}).  The blob and
    the text band sit in opposite halves so the maps are near-orthogonal.
    """
    rng = _rng_for(seed, sid)
    img = _gradient_background(size, rng)
    band_on_top = rng.next_below(2) == 0
    if band_on_top:
        band_y = rng.uniform(0.08, 0.22) * size
        blob_y = rng.uniform(0.62, 0.80) * size
    else:
        band_y = rng.uniform(0.72, 0.86) * size
        blob_y = rng.uniform(0.20, 0.38) * size
    blob_x = rng.uniform(0.25, 0.75) * size
    sigma = rng.uniform(0.050, 0.062) * size
    # saturated palette: the blob must stay visible on any background draw
    palette = ([1.0, 0.1, 0.1], [0.1, 0.1, 1.0], [1.0, 0.9, 0.1], [0.1, 0.9, 0.2])
    _draw_blob(img, blob_y, blob_x, 1.6 * sigma, palette[rng.next_below(4)])
    y0 = int(band_y)
    band_h = max(3, size // 10)
    band = img[y0 : y0 + band_h]
    stripes = (np.arange(size) // 2) % 2 == 0
    band[:, stripes] = 0.02
    band[:, ~stripes] = 0.98
    eye_map = gaussian_mixture_map(size, [(1.0, blob_y, blob_x, sigma, sigma)])
    # the band target spans the band's full width: with the segment centre
    # pinned, the map is a pure function of what the pixels show
    ecom_map = gaussian_mixture_map(
        size, [(1.0, y0 + band_h / 2.0, 0.5 * size, 0.045 * size, 0.60 * size)]
    )
    return img, {int(DomainLabel.NATURAL_EYE): eye_map, int(DomainLabel.ECOMMERCE): ecom_map}


# ---------------------------------------------------------------------------
# datasets on disk


@dataclass
class Sample:
    sid: str
    image: np.ndarray  # [S, S, 3] in [0, 1]
    smap: np.ndarray  # [S, S] in [0, 1] (max-scaled, 8-bit quantized)
    fmap: np.ndarray  # [S, S] binary
    label: int


@dataclass
class ManifestEntry:
    image: str
    smap: str
    fix: str
    domain: int


def write_manifest(path, entries) -> None:
    lines = [f"{e.image}\t{e.smap}\t{e.fix}\t{e.domain}\n" for e in entries]
    Path(path).write_text("".join(lines), encoding="utf-8", newline="\n")


def read_manifest(path) -> list:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: invalid UTF-8 at byte {exc.start}") from None
    entries = []
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"{path}:{ln}: expected 4 tab-separated fields")
        try:
            domain = int(parts[3])
        except ValueError:
            raise ParseError(f"{path}:{ln}: bad domain code {parts[3]!r}") from None
        entries.append(ManifestEntry(parts[0], parts[1], parts[2], domain))
    return entries


def load_samples(manifest_path, num_domains: int = 4) -> list:
    """Read and validate every sample a manifest references."""
    base = Path(manifest_path).parent
    samples = []
    for e in read_manifest(manifest_path):
        if not 0 <= e.domain < num_domains:
            raise ParseError(f"{manifest_path}: domain {e.domain} out of range for {e.image}")
        for rel in (e.image, e.smap, e.fix):
            if not (base / rel).exists():
                raise ParseError(f"{manifest_path}: missing file {rel}")
        img = read_ppm(base / e.image)
        smap = read_pgm(base / e.smap)
        fmap = read_pgm(base / e.fix)
        if img.shape[:2] != smap.shape or smap.shape != fmap.shape:
            raise ParseError(f"{manifest_path}: size mismatch for {e.image}")
        sid = Path(e.image).stem
        samples.append(Sample(sid, img, smap, (fmap > 0.5).astype(np.float64), e.domain))
    return samples


_PREFIX = {0: "nm", 1: "ne", 2: "ec", 3: "ui"}


def quantize_map(smap: np.ndarray) -> np.ndarray:
    """Max-scale to [0, 1] and round to the 8-bit grid files can hold."""
    return np.rint(smap / smap.max() * 255.0) / 255.0


def _write_map(out: Path, image: str, tag: str, smap, seed: int, domain: int) -> ManifestEntry:
    """Write one map and its fixations; the manifest row pairs them with `image`.

    Fixations are drawn from the quantized map actually stored on disk, not
    the analytic mixture, so every fixated cell has positive stored value.
    """
    checksum = float(smap.sum())
    if abs(checksum - 1.0) > 1e-9:
        raise ValueError(f"{tag}: map mass {checksum} is not 1")
    q = quantize_map(smap)
    fmap = sample_fixations(q, FIXATIONS_PER_SAMPLE, derive(seed, "fix", tag))
    write_pgm(out / "maps" / f"{tag}.pgm", q)
    write_pgm(out / "fixations" / f"{tag}.pgm", fmap)
    return ManifestEntry(image, f"maps/{tag}.pgm", f"fixations/{tag}.pgm", domain)


def generate_dataset(out_dir, n_per_domain: int, size: int, seed: int,
                     n_conflict_pairs: int = 0) -> dict:
    """Render the four-domain corpus (plus optional conflict pairs) to disk.

    Returns {"train": path, "val": path, "test": path, and, when pairs were
    requested, "conflict_train": path, "conflict_val": path}.
    """
    if size < 32 or size % 32:
        raise ConfigError(f"size {size} must be a positive multiple of 32")
    if n_per_domain < 1:
        raise ConfigError(f"need at least one sample per domain, got {n_per_domain}")
    out = Path(out_dir)
    for sub in ("images", "maps", "fixations"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    entries = []
    for domain in range(4):
        for i in range(n_per_domain):
            sid = f"{_PREFIX[domain]}{i:04d}"
            img, smap = render_scene(domain, size, seed, sid)
            entries.append(_write_map(out, f"images/{sid}.ppm", sid, smap, seed, domain))
            write_ppm(out / "images" / f"{sid}.ppm", img)

    order = list(range(len(entries)))
    SplitMix64(derive(seed, "split")).shuffle(order)
    n = len(order)
    n_train, n_val = int(0.8 * n), int(0.1 * n)
    folds = {
        "train": [entries[i] for i in order[:n_train]],
        "val": [entries[i] for i in order[n_train : n_train + n_val]],
        "test": [entries[i] for i in order[n_train + n_val :]],
    }
    paths = {}
    for fold, rows in folds.items():
        p = out / f"manifest_{fold}.tsv"
        write_manifest(p, rows)
        paths[fold] = str(p)

    if n_conflict_pairs > 0:
        pair_rows = []
        for i in range(n_conflict_pairs):
            sid = f"cf{i:04d}"
            img, maps = render_conflict_scene(size, seed, sid)
            pair_rows.append([_write_map(out, f"images/{sid}.ppm", f"{sid}_{_PREFIX[domain]}",
                                         smap, seed, domain)
                              for domain, smap in sorted(maps.items())])
            write_ppm(out / "images" / f"{sid}.ppm", img)
        order = list(range(n_conflict_pairs))
        SplitMix64(derive(seed, "conflict-split")).shuffle(order)
        n_train = max(1, int(0.8 * n_conflict_pairs)) if n_conflict_pairs > 1 else 1
        train_rows = [r for i in order[:n_train] for r in pair_rows[i]]
        val_rows = [r for i in order[n_train:] for r in pair_rows[i]]
        p_train = out / "manifest_conflict_train.tsv"
        p_val = out / "manifest_conflict_val.tsv"
        write_manifest(p_train, train_rows)
        write_manifest(p_val, val_rows)
        paths["conflict_train"] = str(p_train)
        paths["conflict_val"] = str(p_val)
    return paths


# ---------------------------------------------------------------------------
# checkpoints


CKPT_MAGIC = b"SUMCKPT1"


def save_checkpoint(path, arrays: dict) -> None:
    """Write named float arrays; see the module docstring for the layout."""
    buf = bytearray()
    buf += CKPT_MAGIC
    names = sorted(arrays)
    buf += struct.pack("<I", len(names))
    for name in names:
        arr = np.asarray(arrays[name], dtype=np.float64)
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise CheckpointError(f"array name too long: {name[:32]}...")
        buf += struct.pack("<H", len(nb)) + nb
        buf += struct.pack("<B", arr.ndim)
        for d in arr.shape:
            buf += struct.pack("<I", d)
        buf += arr.astype("<f4").tobytes()
    buf += struct.pack("<I", zlib.crc32(bytes(buf)) & 0xFFFFFFFF)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_bytes(bytes(buf))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> dict:
    """Read arrays back as float64 (exact embed of the stored float32)."""
    blob = Path(path).read_bytes()
    if len(blob) < len(CKPT_MAGIC) + 8:
        raise CheckpointError(f"{path}: truncated checkpoint")
    if blob[: len(CKPT_MAGIC)] != CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:8]!r}")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch")
    end = len(blob) - 4  # the CRC is not payload
    (count,) = struct.unpack_from("<I", blob, len(CKPT_MAGIC))  # in bounds: len >= 16
    pos = len(CKPT_MAGIC) + 4
    arrays = {}
    prev = None
    for _ in range(count):
        if pos + 2 > end:
            raise CheckpointError(f"{path}: truncated at byte {pos}")
        (nlen,) = struct.unpack_from("<H", blob, pos)
        pos += 2
        if pos + nlen > end:
            raise CheckpointError(f"{path}: truncated at byte {pos}")
        try:
            name = blob[pos : pos + nlen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(
                f"{path}: array name byte at offset {pos + exc.start} is not UTF-8") from None
        pos += nlen
        if prev is not None and name <= prev:
            raise CheckpointError(f"{path}: array names not sorted ({name!r})")
        prev = name
        if pos + 1 > end:
            raise CheckpointError(f"{path}: truncated at byte {pos}")
        ndim = blob[pos]
        pos += 1
        if pos + 4 * ndim > end:  # the first dim that does not fit
            raise CheckpointError(f"{path}: truncated at byte {pos + (end - pos) // 4 * 4}")
        dims_at = pos
        dims = struct.unpack_from(f"<{ndim}I", blob, pos)
        pos += 4 * ndim
        n_items = 1
        for d in dims:
            n_items *= d
        if pos + 4 * n_items > end:
            raise CheckpointError(f"{path}: truncated at byte {pos}")
        arr = np.frombuffer(blob, dtype="<f4", count=n_items, offset=pos)
        try:  # a zero dim lets the bounds test pass whatever the others are
            arrays[name] = arr.astype(np.float64).reshape(dims)
        except ValueError:
            raise CheckpointError(
                f"{path}: array {name!r} dims {dims} at byte {dims_at} are too big") from None
        pos += 4 * n_items
    if pos != end:
        raise CheckpointError(f"{path}: {end - pos} trailing bytes")
    return arrays
