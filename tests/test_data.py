"""File formats, synthetic scenes, and checkpoint round-trips."""

import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from sumnet.blocks import DomainLabel
from sumnet.data import (
    CKPT_MAGIC,
    CheckpointError,
    FIXATIONS_PER_SAMPLE,
    ParseError,
    Sample,
    gaussian_mixture_map,
    generate_dataset,
    load_checkpoint,
    load_samples,
    quantize_map,
    read_manifest,
    read_pgm,
    read_ppm,
    render_conflict_scene,
    render_scene,
    resize_bilinear,
    sample_fixations,
    save_checkpoint,
    write_pgm,
    write_ppm,
)
from sumnet.metrics import auc_judd_metric
from sumnet.rng import SplitMix64, derive


# ---------------------------------------------------------------------------
# PPM / PGM


def test_ppm_round_trip_bytes(tmp_path):
    rng = SplitMix64(7)
    img = rng.uniforms(48).reshape(4, 4, 3)
    p = tmp_path / "a.ppm"
    write_ppm(p, img)
    back = read_ppm(p)
    assert back.shape == (4, 4, 3)
    # quantized values survive a second write exactly
    p2 = tmp_path / "b.ppm"
    write_ppm(p2, back)
    assert p.read_bytes() == p2.read_bytes()
    assert np.max(np.abs(back - img)) <= 0.5 / 255.0 + 1e-12


def test_pgm_round_trip_values(tmp_path):
    gray = np.linspace(0.0, 1.0, 25).reshape(5, 5)
    p = tmp_path / "g.pgm"
    write_pgm(p, gray)
    back = read_pgm(p)
    assert back.shape == (5, 5)
    assert np.max(np.abs(back - gray)) <= 0.5 / 255.0 + 1e-12
    assert back.min() == 0.0 and back.max() == 1.0


def test_header_comments_and_whitespace(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5 # comment\n# another\n 2\t2 \n255\n" + bytes([0, 64, 128, 255]))
    arr = read_pgm(p)
    assert arr.shape == (2, 2)
    assert arr[1, 1] == 1.0 and arr[0, 0] == 0.0


@pytest.mark.parametrize(
    "blob, fragment",
    [
        (b"P5\n2 2\n254\n" + bytes(4), "maxval"),
        (b"P5\n0 2\n255\n", "dimensions"),
        (b"P5\n2 2\n255\n" + bytes(3), "payload"),
        (b"P5\n2 2\n255\n" + bytes(5), "payload"),
        (b"P6\n2 2\n255\n" + bytes(12), "not a P5"),
        (b"P5\n2 x\n255\n" + bytes(4), "height"),
        (b"P5\n2 2", "end of header"),
    ],
)
def test_pgm_errors_carry_location(tmp_path, blob, fragment):
    p = tmp_path / "bad.pgm"
    p.write_bytes(blob)
    with pytest.raises(ParseError) as exc:
        read_pgm(p)
    assert fragment in str(exc.value)
    assert "byte" in str(exc.value)


def test_write_shape_validation(tmp_path):
    with pytest.raises(ParseError):
        write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))
    with pytest.raises(ParseError):
        write_pgm(tmp_path / "x.pgm", np.zeros((4, 4, 3)))


# ---------------------------------------------------------------------------
# resize


def test_resize_ramp_oracle():
    ramp = np.array([[0.0, 1.0]])
    out = resize_bilinear(ramp, (1, 4))
    assert np.allclose(out, [[0.0, 0.25, 0.75, 1.0]], atol=1e-12)


def test_resize_downscale_averages():
    row = np.array([[0.0, 1.0, 2.0, 3.0]])
    out = resize_bilinear(row, (1, 2))
    assert np.allclose(out, [[0.5, 2.5]], atol=1e-12)


def test_resize_identity_and_constant():
    rng = SplitMix64(3)
    arr = rng.uniforms(36).reshape(6, 6)
    assert np.allclose(resize_bilinear(arr, (6, 6)), arr, atol=1e-12)
    const = np.full((5, 7), 0.42)
    out = resize_bilinear(const, (11, 3))
    assert np.allclose(out, 0.42, atol=1e-12)


def test_resize_channels_match_per_plane():
    rng = SplitMix64(4)
    img = rng.uniforms(4 * 4 * 3).reshape(4, 4, 3)
    out = resize_bilinear(img, (7, 5))
    assert out.shape == (7, 5, 3)
    for c in range(3):
        assert np.allclose(out[:, :, c], resize_bilinear(img[:, :, c], (7, 5)), atol=1e-12)


def test_resize_rejects_bad_target():
    with pytest.raises(ParseError):
        resize_bilinear(np.zeros((4, 4)), (0, 4))


# ---------------------------------------------------------------------------
# analytic maps and fixations


def test_mixture_map_unit_mass_and_compact_support():
    m = gaussian_mixture_map(32, [(1.0, 16.0, 16.0, 1.5, 1.5)])
    assert abs(m.sum() - 1.0) < 1e-12
    assert m[0, 0] == 0.0  # far tail is exactly zero
    assert m.argmax() == 16 * 32 + 16


def test_mixture_map_weights_order_peaks():
    m = gaussian_mixture_map(
        32, [(0.75, 8.0, 8.0, 1.2, 1.2), (0.25, 24.0, 24.0, 1.2, 1.2)]
    )
    assert m[8, 8] > m[24, 24] > 0.0


def test_fixation_count_and_support():
    m = gaussian_mixture_map(32, [(1.0, 10.0, 20.0, 1.5, 1.5)])
    f = sample_fixations(m, FIXATIONS_PER_SAMPLE, 99)
    assert f.shape == m.shape
    assert set(np.unique(f)) <= {0.0, 1.0}
    assert f.sum() == FIXATIONS_PER_SAMPLE
    assert np.all(m[f > 0.0] > 0.0)  # mass-proportional draws avoid zeros


def test_fixations_deterministic_and_seed_sensitive():
    m = gaussian_mixture_map(32, [(1.0, 16.0, 16.0, 2.0, 2.0)])
    a = sample_fixations(m, 10, 5)
    b = sample_fixations(m, 10, 5)
    c = sample_fixations(m, 10, 6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_fixations_capped_by_positive_cells():
    m = np.zeros((4, 4))
    m[0, 0] = 0.7
    m[3, 3] = 0.3
    f = sample_fixations(m, 20, 1)
    assert f.sum() == 2.0
    assert f[0, 0] == 1.0 and f[3, 3] == 1.0


def test_fixations_reject_bad_maps():
    with pytest.raises(ValueError):
        sample_fixations(np.zeros((4, 4)), 5, 1)
    with pytest.raises(ValueError):
        sample_fixations(np.array([[-1.0, 2.0]]), 1, 1)


# ---------------------------------------------------------------------------
# scenes


def test_scene_determinism_and_ranges():
    for domain in range(4):
        img1, m1 = render_scene(domain, 64, 11, "s0")
        img2, m2 = render_scene(domain, 64, 11, "s0")
        assert np.array_equal(img1, img2) and np.array_equal(m1, m2)
        img3, _ = render_scene(domain, 64, 11, "s1")
        assert not np.array_equal(img1, img3)
        assert img1.shape == (64, 64, 3)
        assert 0.0 <= img1.min() and img1.max() <= 1.0
        assert abs(m1.sum() - 1.0) < 1e-9


def test_unknown_domain_rejected():
    with pytest.raises(ValueError):
        render_scene(4, 64, 1, "x")


def test_mouse_maps_spread_wider_than_eye():
    # support area per component: the mouse sigma range sits above the eye's,
    # so mouse footprints are larger even though eye scenes have more blobs
    mouse_each = []
    eye_each = []
    for i in range(8):
        m = render_scene(0, 64, 5, f"m{i}")[1]
        e = render_scene(1, 64, 5, f"e{i}")[1]
        mouse_each.append((m > 0).sum() / 1.0)  # mouse has 1-2 components
        eye_each.append((e > 0).sum() / 2.0)  # eye has 2-3 components
    assert np.mean(mouse_each) > np.mean(eye_each)


def test_ui_map_peaks_in_top_left_quadrant():
    for i in range(6):
        _, m = render_scene(int(DomainLabel.UI), 64, 21, f"u{i}")
        peak = np.unravel_index(m.argmax(), m.shape)
        assert peak[0] < 32 and peak[1] < 32


def test_ecommerce_map_is_anisotropic():
    _, m = render_scene(int(DomainLabel.ECOMMERCE), 64, 9, "e0")
    ys, xs = np.nonzero(m)
    assert np.ptp(xs) > 2 * np.ptp(ys)  # wide in x, tight in y


def test_conflict_maps_nearly_disjoint():
    img, maps = render_conflict_scene(64, 13, "c0")
    eye = maps[int(DomainLabel.NATURAL_EYE)]
    ecom = maps[int(DomainLabel.ECOMMERCE)]
    assert img.shape == (64, 64, 3)
    assert abs(eye.sum() - 1.0) < 1e-9 and abs(ecom.sum() - 1.0) < 1e-9
    overlap = np.minimum(eye, ecom).sum()
    assert overlap < 1e-6


def test_conflict_maps_are_written_only_at_unit_mass(tmp_path, monkeypatch):
    # both corpus paths write maps through one writer, so both check the mass
    def heavy(size, seed, sid):
        img, maps = render_conflict_scene(size, seed, sid)
        return img, {d: 2.0 * m for d, m in maps.items()}

    monkeypatch.setattr("sumnet.data.render_conflict_scene", heavy)
    with pytest.raises(ValueError, match="map mass 2.0"):
        generate_dataset(tmp_path, n_per_domain=1, size=32, seed=1, n_conflict_pairs=1)


def test_oracle_auc_on_generated_samples():
    # the stored (quantized) map must rank its own fixations almost perfectly
    for domain in range(4):
        for i in range(3):
            sid = f"a{domain}_{i}"
            _, smap = render_scene(domain, 64, 77, sid)
            q = quantize_map(smap)
            f = sample_fixations(q, FIXATIONS_PER_SAMPLE, derive(77, "fix", sid))
            assert auc_judd_metric(f, q) >= 0.99


# ---------------------------------------------------------------------------
# datasets on disk


def test_generate_dataset_layout_and_splits(tmp_path):
    paths = generate_dataset(tmp_path, n_per_domain=5, size=64, seed=3, n_conflict_pairs=5)
    train = read_manifest(paths["train"])
    val = read_manifest(paths["val"])
    test = read_manifest(paths["test"])
    assert len(train) == 16 and len(val) == 2 and len(test) == 2
    domains = sorted(e.domain for e in train + val + test)
    assert domains == sorted([0, 1, 2, 3] * 5)
    samples = load_samples(paths["val"])
    for s in samples:
        assert s.image.shape == (64, 64, 3)
        assert s.smap.shape == (64, 64)
        assert s.smap.max() == 1.0
        assert s.fmap.sum() == FIXATIONS_PER_SAMPLE
        assert s.label in range(4)
    # conflict rows pair two domains over one shared image
    ctrain = read_manifest(paths["conflict_train"])
    cval = read_manifest(paths["conflict_val"])
    assert len(ctrain) == 8 and len(cval) == 2
    by_image = {}
    for e in ctrain + cval:
        by_image.setdefault(e.image, []).append(e.domain)
    for doms in by_image.values():
        assert sorted(doms) == [int(DomainLabel.NATURAL_EYE), int(DomainLabel.ECOMMERCE)]


def test_generate_dataset_is_deterministic(tmp_path):
    pa = generate_dataset(tmp_path / "a", n_per_domain=2, size=32, seed=5)
    pb = generate_dataset(tmp_path / "b", n_per_domain=2, size=32, seed=5)
    for fold in ("train", "val", "test"):
        ea = read_manifest(pa[fold])
        eb = read_manifest(pb[fold])
        assert [vars(e) for e in ea] == [vars(e) for e in eb]
        for e in ea:
            fa = (tmp_path / "a" / e.image).read_bytes()
            fb = (tmp_path / "b" / e.image).read_bytes()
            assert fa == fb


def test_generate_dataset_validates_inputs(tmp_path):
    with pytest.raises(ValueError):
        generate_dataset(tmp_path, n_per_domain=1, size=48, seed=1)
    with pytest.raises(ValueError):
        generate_dataset(tmp_path, n_per_domain=0, size=64, seed=1)


def test_manifest_parse_errors(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("a.ppm\tb.pgm\tc.pgm\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        read_manifest(p)
    assert ":1:" in str(exc.value)
    p.write_text("a.ppm\tb.pgm\tc.pgm\tseven\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_manifest(p)


def test_load_samples_validates_files(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("img.ppm\tmap.pgm\tfix.pgm\t0\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_samples(p)
    assert "missing file" in str(exc.value)
    write_ppm(tmp_path / "img.ppm", np.zeros((4, 4, 3)))
    write_pgm(tmp_path / "map.pgm", np.ones((4, 4)))
    write_pgm(tmp_path / "fix.pgm", np.ones((8, 8)))
    with pytest.raises(ParseError) as exc:
        load_samples(p)
    assert "size mismatch" in str(exc.value)
    p.write_text("img.ppm\tmap.pgm\tfix.pgm\t9\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_samples(p)
    assert "domain" in str(exc.value)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    rng = SplitMix64(2)
    arrays = {
        "w.a": rng.uniforms(12).reshape(3, 4),
        "b": np.array(1.5),
        "deep.tensor": rng.uniforms(8).reshape(2, 2, 2),
    }
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, arrays)
    back = load_checkpoint(p)
    assert sorted(back) == sorted(arrays)
    for name, arr in arrays.items():
        assert back[name].shape == np.asarray(arr).shape
        assert np.max(np.abs(back[name] - arr)) < 1e-6  # float32 rounding only
        assert back[name].dtype == np.float64


def test_checkpoint_write_that_fails_part_way_keeps_the_previous_file(tmp_path, monkeypatch):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, {"w": np.arange(6.0).reshape(2, 3)})
    before = p.read_bytes()
    real = Path.write_bytes

    def crash_half_way(self, data):
        real(self, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", crash_half_way)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(p, {"w": np.ones((2, 3)), "v": np.zeros(4)})
    monkeypatch.undo()
    assert p.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [p]  # no temporary left behind
    assert np.array_equal(load_checkpoint(p)["w"], np.arange(6.0).reshape(2, 3))


def test_checkpoint_save_is_idempotent_after_rounding(tmp_path):
    arrays = {"x": np.array([np.pi, 1.0 / 3.0])}
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(p1, arrays)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_names_sorted_in_file(tmp_path):
    p = tmp_path / "s.ckpt"
    save_checkpoint(p, {"zz": np.zeros(1), "aa": np.ones(1), "mm": np.ones(1)})
    blob = p.read_bytes()
    assert blob.index(b"aa") < blob.index(b"mm") < blob.index(b"zz")
    assert blob[:8] == b"SUMCKPT1"


def test_checkpoint_corruption_detected(tmp_path):
    p = tmp_path / "c.ckpt"
    save_checkpoint(p, {"w": np.arange(6.0).reshape(2, 3)})
    blob = bytearray(p.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(p)
    assert "checksum" in str(exc.value)


def test_checkpoint_non_utf8_name_names_the_offset(tmp_path):
    # the one array's name byte becomes 0xFF under a valid CRC
    p = tmp_path / "n.ckpt"
    save_checkpoint(p, {"w": np.ones(2)})
    blob = bytearray(p.read_bytes())
    at = len(CKPT_MAGIC) + 4 + 2  # past the array count and the name length
    assert blob[at:at + 1] == b"w"
    blob[at] = 0xFF
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=f"offset {at} is not UTF-8"):
        load_checkpoint(p)


def test_checkpoint_impossible_dims_name_the_array_and_offset(tmp_path):
    # a zero dim beside two huge ones: no payload, so only the reshape can tell
    p = tmp_path / "d.ckpt"
    save_checkpoint(p, {"w": np.zeros((0, 2, 2))})
    assert load_checkpoint(p)["w"].shape == (0, 2, 2)  # small zero-size arrays round-trip
    blob = bytearray(p.read_bytes())
    at = len(CKPT_MAGIC) + 4 + 2 + 1 + 1  # past the count, name length, name and ndim
    assert struct.unpack_from("<3I", blob, at) == (0, 2, 2)
    struct.pack_into("<3I", blob, at, 0, 2**32 - 1, 2**32 - 1)
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    p.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=f"array 'w' dims .* at byte {at} are too big"):
        load_checkpoint(p)


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "m.ckpt"
    p.write_bytes(b"NOTMAGIC" + bytes(8))
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(p)
    assert "magic" in str(exc.value)
    p.write_bytes(b"SUM")
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(p)
    assert "truncated" in str(exc.value)


def test_checkpoint_scalar_and_empty_name_rules(tmp_path):
    p = tmp_path / "s.ckpt"
    save_checkpoint(p, {"config.lr": np.array([1e-4])})
    back = load_checkpoint(p)
    assert back["config.lr"].shape == (1,)
    assert abs(back["config.lr"][0] - 1e-4) < 1e-11
