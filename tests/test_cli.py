"""End-to-end command-line behaviour, run in process via cli.main()."""

import filecmp
import json
import os
import struct
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

import sumnet.blocks
import sumnet.model
import sumnet.scan
import sumnet.tensor
from sumnet import cli
from sumnet.data import load_checkpoint, read_manifest, read_pgm, save_checkpoint, write_ppm
from sumnet.gradcheck import run_suite
from sumnet.scan import DIRECTION_ORDER


@pytest.fixture(scope="module")
def corpus32(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus32")
    assert cli.main(["generate-data", "--out", str(out), "--per-domain", "10",
                     "--size", "32", "--seed", "7"]) == 0
    return out


@pytest.fixture(scope="module")
def corpus64(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus64")
    assert cli.main(["generate-data", "--out", str(out), "--per-domain", "2",
                     "--size", "64", "--seed", "11"]) == 0
    return out


def micro_config(corpus, out_dir, **overrides):
    doc = {
        "input_size": 32, "base_channels": 4, "state_size": 2,
        "encoder_depths": [1, 1, 1, 1], "decoder_depths": [1, 1, 1, 1],
        "token_dim": 16, "epochs": 2, "batch_size": 8, "lr": 1e-4,
        "patience": 4, "seed": 0,
        "train_manifest": str(corpus / "manifest_train.tsv"),
        "val_manifest": str(corpus / "manifest_val.tsv"),
        "out_dir": str(out_dir),
    }
    doc.update(overrides)
    return doc


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus32):
    out = tmp_path_factory.mktemp("run")
    cfg = tmp_path_factory.mktemp("cfg") / "train.json"
    cfg.write_text(json.dumps(micro_config(corpus32, out)), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return out


# ---------------------------------------------------------------------------
# generate-data


def test_generate_data_layout_and_split(corpus32, capsys):
    for sub in ("images", "maps", "fixations"):
        assert (corpus32 / sub).is_dir()
    assert len(list((corpus32 / "images").glob("*.ppm"))) == 40
    sizes = {fold: len(read_manifest(corpus32 / f"manifest_{fold}.tsv"))
             for fold in ("train", "val", "test")}
    assert sizes == {"train": 32, "val": 4, "test": 4}


def test_generate_data_is_byte_reproducible(tmp_path):
    argv = ["generate-data", "--per-domain", "1", "--size", "32", "--seed", "5",
            "--conflict-pairs", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    rel = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert rel == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    for r in rel:
        assert filecmp.cmp(a / r, b / r, shallow=False), r
    assert (a / "manifest_conflict_train.tsv").exists()
    assert (a / "manifest_conflict_val.tsv").exists()


def test_generate_data_rejects_bad_size(tmp_path, capsys):
    code = cli.main(["generate-data", "--out", str(tmp_path / "x"),
                     "--per-domain", "1", "--size", "60"])
    assert code == 2
    assert "60" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [("--size", "size 0"), ("--per-domain", "per domain")])
def test_generate_data_rejects_empty_corpus(tmp_path, capsys, flag, message):
    args = {"--per-domain": "1", "--size": "32", flag: "0"}
    code = cli.main(["generate-data", "--out", str(tmp_path / "x"),
                     *[tok for kv in args.items() for tok in kv]])
    assert code == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_writes_artifacts(trained, corpus32):
    assert (trained / "checkpoint.ckpt").exists()
    report = json.loads((trained / "report.json").read_text(encoding="utf-8"))
    assert report["config"]["input_size"] == 32
    assert report["num_parameters"] > 0
    assert 0 <= report["best_epoch"] < len(report["rows"])
    lines = (trained / "epochs.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(report["rows"])
    assert json.loads(lines[0])["epoch"] == 0


def test_train_rejects_unknown_config_key(tmp_path, corpus32, capsys):
    doc = micro_config(corpus32, tmp_path / "out")
    doc["learning_rate"] = 0.1
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert "learning_rate" in capsys.readouterr().err


def test_train_config_type_error_names_the_field(tmp_path, corpus32, capsys):
    doc = micro_config(corpus32, tmp_path / "out", base_channels="wide")
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert "base_channels must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("share_scan_params", "no", "share_scan_params must be true or false, got 'no'"),
    ("kl_literal", 0, "kl_literal must be true or false, got 0"),
    ("input_size", 64.5, "input_size must be an integer, got 64.5"),
    ("epochs", True, "epochs must be an integer, got True"),
    ("lr", "0.001", "lr must be a number, got '0.001'"),
    ("train_manifest", 5, "train_manifest must be a path string, got 5"),
    ("val_manifest", None, "val_manifest must be a path string, got None"),
    ("out_dir", ["a"], "out_dir must be a path string, got ['a']"),
])
def test_train_rejects_a_config_value_it_would_have_to_coerce(tmp_path, corpus32, capsys,
                                                             field, value, message):
    doc = micro_config(corpus32, tmp_path / "out")
    doc[field] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert f"error: {cfg}: {message}" in capsys.readouterr().err  # the file and the key
    assert not (tmp_path / "out").exists()


def test_train_rejects_missing_manifest_field(tmp_path, corpus32, capsys):
    doc = micro_config(corpus32, tmp_path / "out")
    del doc["val_manifest"]
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert "val_manifest" in capsys.readouterr().err


def test_train_rejects_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json", encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_a_deeply_nested_config_is_a_config_error(tmp_path, trained, corpus32, capsys):
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 2
    assert f"error: {cfg}: invalid JSON (nested too deeply)" in capsys.readouterr().err
    assert cli.main(["eval", "--manifest", str(corpus32 / "manifest_val.tsv"),
                     "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--config", str(cfg)]) == 2
    assert f"error: {cfg}: invalid JSON (nested too deeply)" in capsys.readouterr().err


def test_train_relative_paths_resolve_against_config(tmp_path, corpus32):
    cfg = corpus32 / "rel.json"
    doc = micro_config(corpus32, "relout", epochs=1)
    doc["train_manifest"] = "manifest_train.tsv"
    doc["val_manifest"] = "manifest_val.tsv"
    doc["out_dir"] = "relout"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 0
    assert (corpus32 / "relout" / "checkpoint.ckpt").exists()


def test_train_lr_override_can_force_numeric_abort(tmp_path, corpus32, capsys):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps(micro_config(corpus32, tmp_path / "out")),
                   encoding="utf-8")
    code = cli.main(["train", "--config", str(cfg), "--lr", "1e30"])
    assert code == 3
    err = capsys.readouterr().err
    assert "non-finite" in err and "epoch 0" in err


def test_numeric_abort_keeps_the_rows_of_finished_epochs(tmp_path, corpus32, trained,
                                                         monkeypatch, capsys):
    # 32 training samples in batches of 8: the 9th batch loss opens epoch 2
    real, calls = sumnet.model.batch_loss, []

    def abort_in_epoch_2(model, samples, idxs):
        calls.append(idxs)
        if len(calls) == 9:
            raise sumnet.tensor.NumericError("forced: produced a non-finite value")
        return real(model, samples, idxs)

    monkeypatch.setattr(sumnet.model, "batch_loss", abort_in_epoch_2)
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps(micro_config(corpus32, tmp_path / "out")), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg), "--epochs", "3"]) == 3
    err = capsys.readouterr().err
    assert "forced" in err and "(epoch 2, batch 0)" in err
    # the two finished epochs, as the uninterrupted two-epoch run wrote them
    rows = (tmp_path / "out" / "epochs.jsonl").read_text(encoding="utf-8")
    assert rows == (trained / "epochs.jsonl").read_text(encoding="utf-8")
    assert not (tmp_path / "out" / "checkpoint.ckpt").exists()


# ---------------------------------------------------------------------------
# eval


def oracle_lines(text, n):
    rows = [json.loads(ln) for ln in text.splitlines()[:n]]
    payload = json.loads("\n".join(text.splitlines()[n:]))
    return rows, payload


def test_eval_oracle_is_perfect_per_sample(corpus64, tmp_path):
    manifest = corpus64 / "manifest_train.tsv"
    n = len(read_manifest(manifest))
    out = tmp_path / "oracle.jsonl"
    assert cli.main(["eval", "--manifest", str(manifest), "--oracle",
                     "--out", str(out)]) == 0
    rows, payload = oracle_lines(out.read_text(encoding="utf-8"), n)
    assert len(rows) == n
    for row in rows:
        assert row["run"] == "oracle"
        assert row["cc"] >= 1.0 - 1e-9
        assert row["sim"] >= 1.0 - 1e-6
        assert abs(row["kld"]) <= 1e-9
        assert row["auc"] >= 0.99
    assert payload["summaries"]["oracle"]["count"] == n


def test_eval_output_is_byte_reproducible(corpus64, tmp_path):
    manifest = corpus64 / "manifest_train.tsv"
    argv = ["eval", "--manifest", str(manifest), "--oracle"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_checkpoint_stdout(trained, corpus32, capsys):
    manifest = corpus32 / "manifest_val.tsv"
    assert cli.main(["eval", "--manifest", str(manifest),
                     "--checkpoint", str(trained / "checkpoint.ckpt")]) == 0
    text = capsys.readouterr().out
    rows, payload = oracle_lines(text, len(read_manifest(manifest)))
    assert all(row["run"] == "checkpoint" for row in rows)
    assert "checkpoint" in payload["summaries"]
    assert "f_scores" not in payload  # single run: no cross-run ranking


def test_repeated_in_process_evals_each_score_only_their_own_checkpoint(trained, corpus32,
                                                                       tmp_path, capsys):
    # the parser is built once per process: its --checkpoint list must not
    # carry one call's checkpoints into the next
    manifest = corpus32 / "manifest_val.tsv"
    other = tmp_path / "other.ckpt"
    other.write_bytes((trained / "checkpoint.ckpt").read_bytes())
    for ckpt in (trained / "checkpoint.ckpt", other):
        assert cli.main(["eval", "--manifest", str(manifest), "--checkpoint", str(ckpt)]) == 0
        rows, payload = oracle_lines(capsys.readouterr().out, len(read_manifest(manifest)))
        assert {row["run"] for row in rows} == set(payload["summaries"]) == {ckpt.stem}
    assert cli.build_parser() is cli.build_parser()


def test_eval_requires_checkpoint_or_oracle(corpus32, capsys):
    code = cli.main(["eval", "--manifest", str(corpus32 / "manifest_val.tsv")])
    assert code == 2
    assert "--checkpoint" in capsys.readouterr().err


def test_eval_rejects_a_checkpoint_given_twice(trained, corpus32, tmp_path, capsys):
    # one run name per checkpoint: a repeat would write its rows twice under it
    ckpt = str(trained / "checkpoint.ckpt")
    out = tmp_path / "dup.jsonl"
    code = cli.main(["eval", "--manifest", str(corpus32 / "manifest_val.tsv"),
                     "--checkpoint", ckpt, "--checkpoint", ckpt, "--out", str(out)])
    assert code == 2
    assert f"--checkpoint {ckpt} given more than once" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_oracle_with_checkpoint(trained, corpus32, capsys):
    code = cli.main(["eval", "--manifest", str(corpus32 / "manifest_val.tsv"), "--oracle",
                     "--checkpoint", str(trained / "checkpoint.ckpt")])
    assert code == 2
    assert "eval needs --checkpoint or --oracle, not both" in capsys.readouterr().err


def test_eval_rejects_oracle_with_config(corpus32, tmp_path, capsys):
    # the oracle builds no model, so a config (even a missing file) is a usage error
    code = cli.main(["eval", "--manifest", str(corpus32 / "manifest_val.tsv"), "--oracle",
                     "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "eval --oracle scores no model, so it takes no --config" in capsys.readouterr().err


def test_eval_names_a_manifests_first_non_utf8_byte(corpus32, tmp_path, capsys):
    blob = (corpus32 / "manifest_val.tsv").read_bytes()
    bad = tmp_path / "manifest_val.tsv"
    bad.write_bytes(blob[:10] + b"\xff" + blob[10:])
    assert cli.main(["eval", "--oracle", "--manifest", str(bad)]) == 2
    assert f"error: {bad}: invalid UTF-8 at byte 10" in capsys.readouterr().err


def test_eval_rejects_architecture_mismatch(trained, corpus32, tmp_path, capsys):
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"input_size": 32, "base_channels": 8,
                               "state_size": 2,
                               "encoder_depths": [1, 1, 1, 1],
                               "decoder_depths": [1, 1, 1, 1],
                               "token_dim": 16}), encoding="utf-8")
    code = cli.main(["eval", "--manifest", str(corpus32 / "manifest_val.tsv"),
                     "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--config", str(cfg)])
    assert code == 2
    assert "mismatch" in capsys.readouterr().err


def test_eval_two_checkpoints_ranks_runs(trained, corpus32, tmp_path, capsys):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps(micro_config(corpus32, tmp_path / "out2",
                                           epochs=1, seed=9)), encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg)]) == 0
    capsys.readouterr()
    manifest = corpus32 / "manifest_val.tsv"
    a = str(trained / "checkpoint.ckpt")
    b = str(tmp_path / "out2" / "checkpoint.ckpt")
    assert cli.main(["eval", "--manifest", str(manifest),
                     "--checkpoint", a, "--checkpoint", b]) == 0
    text = capsys.readouterr().out
    _, payload = oracle_lines(text, 2 * len(read_manifest(manifest)))
    assert set(payload["f_scores"]) == {a, b}  # full paths disambiguate runs
    assert len(payload["summaries"]) == 2


def test_eval_ranks_a_run_with_a_metric_no_sample_could_score(trained, corpus32, tmp_path,
                                                                capsys):
    # a zeroed output layer predicts a constant map, which no sample can
    # score on cc: that run's mean is None and ranks as the worst plausible cc
    arrays = load_checkpoint(trained / "checkpoint.ckpt")
    arrays["head.out.weight"][...] = 0.0
    flat = tmp_path / "flat.ckpt"
    save_checkpoint(flat, arrays)
    manifest = corpus32 / "manifest_val.tsv"
    a, b = str(trained / "checkpoint.ckpt"), str(flat)
    assert cli.main(["eval", "--manifest", str(manifest),
                     "--checkpoint", a, "--checkpoint", b]) == 0
    _, payload = oracle_lines(capsys.readouterr().out, 2 * len(read_manifest(manifest)))
    assert payload["summaries"][b]["cc"]["mean"] is None
    assert payload["f_scores"][a] > payload["f_scores"][b]


def _two_domain_checkpoint(tmp_path):
    """A conditioned micro model built for the first two domains only."""
    model = sumnet.model.Model(sumnet.model.SumConfig(
        input_size=32, base_channels=4, state_size=2, encoder_depths=(1, 1, 1, 1),
        decoder_depths=(1, 1, 1, 1), token_dim=16, num_domains=2))
    path = tmp_path / "two.ckpt"
    save_checkpoint(path, model.state_arrays())
    return path


def test_eval_rejects_a_domain_the_model_lacks(corpus32, tmp_path, capsys):
    manifest = corpus32 / "manifest_val.tsv"
    code = cli.main(["eval", "--manifest", str(manifest),
                     "--checkpoint", str(_two_domain_checkpoint(tmp_path))])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: {manifest}: sample " in err
    assert "is not one of the checkpoint's 2 domains (natural-mouse, natural-eye)" in err


def test_infer_rejects_a_domain_the_model_lacks(tmp_path, capsys):
    src = tmp_path / "img.ppm"
    write_ppm(src, np.full((32, 32, 3), 0.5))
    code = cli.main(["infer", "--checkpoint", str(_two_domain_checkpoint(tmp_path)),
                     "--image", str(src), "--domain", "ui", "--out", str(tmp_path / "y.pgm")])
    assert code == 2
    assert ("error: --domain: domain ui is not one of the checkpoint's 2 domains "
            "(natural-mouse, natural-eye)") in capsys.readouterr().err
    assert not (tmp_path / "y.pgm").exists()


# ---------------------------------------------------------------------------
# infer


def test_infer_preserves_input_dimensions(trained, tmp_path):
    rng = np.random.default_rng(3)
    img = rng.uniform(size=(48, 32, 3))
    src = tmp_path / "photo.ppm"
    write_ppm(src, img)
    out = tmp_path / "pred.pgm"
    assert cli.main(["infer", "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--image", str(src), "--domain", "ecommerce",
                     "--out", str(out)]) == 0
    pred = read_pgm(out)
    assert pred.shape == (48, 32)
    assert pred.min() >= 0.0 and pred.max() <= 1.0

    out2 = tmp_path / "pred2.pgm"
    assert cli.main(["infer", "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--image", str(src), "--domain", "ecommerce",
                     "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_infer_handles_flat_image(trained, tmp_path):
    src = tmp_path / "flat.ppm"
    write_ppm(src, np.full((32, 32, 3), 0.5))
    out = tmp_path / "flat.pgm"
    assert cli.main(["infer", "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--image", str(src), "--domain", "ui",
                     "--out", str(out)]) == 0
    assert read_pgm(out).shape == (32, 32)


def test_infer_rejects_unknown_domain(trained, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["infer", "--checkpoint", str(trained / "checkpoint.ckpt"),
                  "--image", str(tmp_path / "x.ppm"), "--domain", "billboards",
                  "--out", str(tmp_path / "y.pgm")])
    assert exc.value.code == 2


def test_infer_missing_image_is_io_error(trained, tmp_path, capsys):
    code = cli.main(["infer", "--checkpoint", str(trained / "checkpoint.ckpt"),
                     "--image", str(tmp_path / "absent.ppm"), "--domain", "ui",
                     "--out", str(tmp_path / "y.pgm")])
    assert code == 2


def _infer_with_config_record(trained, tmp_path, record):
    """Exit code of infer on the trained checkpoint with its config record replaced."""
    arrays = load_checkpoint(trained / "checkpoint.ckpt")
    if record is None:
        del arrays["config"]
    else:
        arrays["config"] = record
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, arrays)
    return cli.main(["infer", "--checkpoint", str(bad), "--image", str(tmp_path / "x.ppm"),
                     "--domain", "ui", "--out", str(tmp_path / "y.pgm")])


def test_infer_rejects_out_of_range_config_code(trained, tmp_path, capsys):
    record = load_checkpoint(trained / "checkpoint.ckpt")["config"]
    text = bytes(record.astype(np.uint8)).decode("utf-8")
    assert '"placement": "decoder"' in text
    sideways = text.replace('"placement": "decoder"', '"placement": "sideways"').encode()
    code = _infer_with_config_record(trained, tmp_path, np.frombuffer(sideways, dtype=np.uint8))
    assert code == 2
    assert "placement 'sideways'" in capsys.readouterr().err


def test_infer_rejects_checkpoint_without_config_record(trained, tmp_path, capsys):
    assert _infer_with_config_record(trained, tmp_path, None) == 2
    assert "lacks its config record" in capsys.readouterr().err


def test_infer_rejects_non_byte_config_record(trained, tmp_path, capsys):
    assert _infer_with_config_record(trained, tmp_path, np.array([123.0, 300.0, 125.0])) == 2
    assert "element 1 is 300.0, not a byte" in capsys.readouterr().err


def test_infer_rejects_checkpoint_with_per_direction_scan_names(trained, tmp_path, capsys):
    # checkpoints written before the scan parameters were stacked on the
    # direction axis name one array per direction: <block>.ssm.<direction>.<field>
    arrays = {}
    for name, a in load_checkpoint(trained / "checkpoint.ckpt").items():
        if ".ssm." in name:
            block, field = name.rsplit(".ssm.", 1)
            arrays.update((f"{block}.ssm.{d}.{field}", a[k])
                          for k, d in enumerate(DIRECTION_ORDER))
        else:
            arrays[name] = a
    old = tmp_path / "per_direction.ckpt"
    save_checkpoint(old, arrays)
    assert cli.main(["infer", "--checkpoint", str(old), "--image", str(tmp_path / "x.ppm"),
                     "--domain", "ui", "--out", str(tmp_path / "y.pgm")]) == 2
    assert "checkpoint lacks parameters: dec0.b0.ssm.a_log" in capsys.readouterr().err


def test_eval_names_the_checkpoint_the_model_refuses(trained, corpus32, tmp_path, capsys):
    # one parameter deleted: the file's CRC is valid, so the model's own
    # check refuses it, and the message must say which file
    arrays = load_checkpoint(trained / "checkpoint.ckpt")
    del arrays["dec0.b0.ssm.a_log"]
    bad = tmp_path / "lacking.ckpt"
    save_checkpoint(bad, arrays)
    code = cli.main(["eval", "--manifest", str(corpus32 / "manifest_test.tsv"),
                     "--checkpoint", str(bad)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: {bad}: checkpoint lacks parameters: dec0.b0.ssm.a_log")


def test_infer_rejects_checkpoint_with_non_utf8_array_name(tmp_path, capsys):
    # one array, named "w", whose name byte becomes 0xFF under a valid CRC
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, {"w": np.ones(2)})
    blob = bytearray(bad.read_bytes())
    at = blob.index(b"w")
    blob[at] = 0xFF
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    bad.write_bytes(bytes(blob))
    assert cli.main(["infer", "--checkpoint", str(bad), "--image", str(tmp_path / "x.ppm"),
                     "--domain", "ui", "--out", str(tmp_path / "y.pgm")]) == 2
    assert f"offset {at} is not UTF-8" in capsys.readouterr().err


def test_infer_rejects_checkpoint_with_impossible_dims(tmp_path, capsys):
    # one [0, 2, 2] array whose dims become (0, 2**32-1, 2**32-1) under a valid CRC
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, {"w": np.zeros((0, 2, 2))})
    blob = bytearray(bad.read_bytes())
    at = blob.index(b"w") + 2  # past the name and ndim
    struct.pack_into("<3I", blob, at, 0, 2**32 - 1, 2**32 - 1)
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])) & 0xFFFFFFFF)
    bad.write_bytes(bytes(blob))
    assert cli.main(["infer", "--checkpoint", str(bad), "--image", str(tmp_path / "x.ppm"),
                     "--domain", "ui", "--out", str(tmp_path / "y.pgm")]) == 2
    assert f"dims (0, 4294967295, 4294967295) at byte {at} are too big" in capsys.readouterr().err


def _nan_checkpoint(trained, tmp_path):
    """The trained checkpoint with one NaN parameter, under a valid CRC."""
    arrays = load_checkpoint(trained / "checkpoint.ckpt")
    arrays["enc1.b0.gate.weight"][0, 3] = np.nan
    bad = tmp_path / "nan.ckpt"
    save_checkpoint(bad, arrays)
    return bad


def test_eval_rejects_a_non_finite_parameter(trained, corpus32, tmp_path, capsys):
    code = cli.main(["eval", "--manifest", str(corpus32 / "manifest_val.tsv"),
                     "--checkpoint", str(_nan_checkpoint(trained, tmp_path))])
    assert code == 2
    assert "enc1.b0.gate.weight is nan at index (0, 3)" in capsys.readouterr().err


def test_infer_rejects_a_non_finite_parameter(trained, tmp_path, capsys):
    src = tmp_path / "img.ppm"
    write_ppm(src, np.full((32, 32, 3), 0.5))
    code = cli.main(["infer", "--checkpoint", str(_nan_checkpoint(trained, tmp_path)),
                     "--image", str(src), "--domain", "ui", "--out", str(tmp_path / "y.pgm")])
    assert code == 2
    assert "enc1.b0.gate.weight is nan at index (0, 3)" in capsys.readouterr().err
    assert not (tmp_path / "y.pgm").exists()


# the op that overflows first, per dtype: float64 holds the float32-max
# products until the scan's outer products; float32 not even the inproj's
OVERFLOWING_OP = {"float64": "selective_scan", "float32": "gated_block inproj"}


def _overflowing_checkpoint(trained, tmp_path, dtype):
    """The trained checkpoint with float32-max weights chained through one
    block (inproj, dwconv, the B and C projections), its config record set
    to `dtype`: every prediction is non-finite."""
    arrays = load_checkpoint(trained / "checkpoint.ckpt")
    for name in ("inproj.weight", "dw.kernel", "ssm.w_b", "ssm.w_c"):
        arrays[f"enc1.b0.{name}"][...] = np.finfo(np.float32).max
    doc = json.loads(bytes(arrays["config"].astype(np.uint8)))
    record = json.dumps({**doc, "dtype": dtype}, sort_keys=True).encode("utf-8")
    arrays["config"] = np.frombuffer(record, dtype=np.uint8).astype(np.float64)
    bad = tmp_path / f"overflow-{dtype}.ckpt"
    save_checkpoint(bad, arrays)
    return bad


def test_eval_numeric_failure_exits_3(trained, corpus32, tmp_path, capsys):
    out = tmp_path / "eval.txt"
    for dtype, op in OVERFLOWING_OP.items():
        with warnings.catch_warnings():  # the checked replay warns of nothing
            warnings.simplefilter("error", RuntimeWarning)
            bad = _overflowing_checkpoint(trained, tmp_path, dtype)
            code = cli.main(["eval", "--manifest", str(corpus32 / "manifest_val.tsv"),
                             "--checkpoint", str(bad), "--out", str(out)])
        assert code == 3, dtype
        assert (f"error: {op}: produced a non-finite value"
                in capsys.readouterr().err.splitlines()), dtype
        assert not out.exists()


def test_infer_numeric_failure_exits_3(trained, tmp_path, capsys):
    src = tmp_path / "img.ppm"
    write_ppm(src, np.full((32, 32, 3), 0.5))
    for dtype, op in OVERFLOWING_OP.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["infer", "--checkpoint",
                             str(_overflowing_checkpoint(trained, tmp_path, dtype)),
                             "--image", str(src), "--domain", "ui",
                             "--out", str(tmp_path / "y.pgm")])
        assert code == 3, dtype
        assert f"error: {op}: produced a non-finite value" in capsys.readouterr().err, dtype
        assert not (tmp_path / "y.pgm").exists()


def test_infer_internal_shape_error_is_not_a_config_error(trained, tmp_path, monkeypatch):
    # a ShapeError is a ValueError, but inside predict it is a program fault:
    # it must surface with its traceback, not as exit 2 "bad configuration"
    def broken(self, images, labels=None):
        raise sumnet.tensor.ShapeError("internal shape fault")

    monkeypatch.setattr(sumnet.model.Model, "predict", broken)
    src = tmp_path / "img.ppm"
    write_ppm(src, np.full((32, 32, 3), 0.5))
    with pytest.raises(sumnet.tensor.ShapeError, match="internal shape fault"):
        cli.main(["infer", "--checkpoint", str(trained / "checkpoint.ckpt"),
                  "--image", str(src), "--domain", "ui", "--out", str(tmp_path / "y.pgm")])


def test_numeric_error_outside_scoring_is_a_program_fault(monkeypatch):
    # gradcheck runs at fixed, seeded points: a NumericError there is no
    # numeric abort (exit 3) but a fault that surfaces with its traceback
    def broken(module):
        raise sumnet.tensor.NumericError("exp: produced a non-finite value")

    monkeypatch.setattr(cli, "run_suite", broken)
    with pytest.raises(sumnet.tensor.NumericError, match="exp: produced"):
        cli.main(["gradcheck", "--module", "objective"])


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_has_no_tensor_module(capsys):
    # the generic ops are test oracles now, checked in test_tensor.py
    with pytest.raises(SystemExit) as exc:
        cli.main(["gradcheck", "--module", "tensor"])
    assert exc.value.code == 2
    assert "invalid choice: 'tensor'" in capsys.readouterr().err


def _gradcheck_status(capsys, module):
    """{row: "ok" or "FAIL"} of `sumnet gradcheck --module <module>`, which must exit 4."""
    assert cli.main(["gradcheck", "--module", module]) == 4
    rows = capsys.readouterr().out.splitlines()[1:]
    return {line.split(",")[0]: line.split(",")[-1] for line in rows}


def test_gradcheck_flags_injected_gradient_bug(capsys, monkeypatch):
    monkeypatch.setattr(sumnet.tensor, "_silu_grad", lambda x, s: s)
    status = _gradcheck_status(capsys, "blocks")
    # both silus of the gated block, its gate's and its scan branch's
    assert status["vss.input"] == status["vss.gate_weight"] == "FAIL"
    assert status["linear.input"] == status["head.input"] == "ok"


def test_gradcheck_catches_a_bug_in_a_numpy_pair(capsys, monkeypatch):
    kernel = sumnet.scan._scan_backward

    def zero_a_gradient(*args):
        g_delta, g_a, g_b, g_c, g_x = kernel(*args)
        return g_delta, np.zeros_like(g_a), g_b, g_c, g_x

    monkeypatch.setattr(sumnet.scan, "_scan_backward", zero_a_gradient)
    status = _gradcheck_status(capsys, "scan")
    assert status["ss2d.row_fwd.a_log"] == status["ss2d.col_bwd.a_log"] == "FAIL"
    assert status["ss2d.shared"] == "FAIL"  # the shared set's a_log
    assert status["ss2d.input"] == status["ss2d.row_fwd.w_b"] == "ok"


def test_gradcheck_catches_a_bug_in_the_knob_gradient(capsys, monkeypatch):
    fold = sumnet.blocks._fold_knobs

    def swapped_shifts(*args):  # b1 and b2 trade gradients
        ln1, ln2, unfold = fold(*args)
        return ln1, ln2, lambda *g: (*unfold(*g)[:4], unfold(*g)[4][..., [0, 3, 2, 1, 4]])

    monkeypatch.setattr(sumnet.blocks, "_fold_knobs", swapped_shifts)
    status = _gradcheck_status(capsys, "blocks")
    assert status["gated_block.knobs"] == "FAIL"
    assert status["gated_block.input"] == status["conditioner.l3_weight"] == "ok"


def test_gradcheck_model_cond_row_catches_a_bug_in_the_conditioner_gradient(capsys,
                                                                           monkeypatch):
    # the row samples the conditioner's last layer, the one whose gradient is nonzero
    cond_bwd = sumnet.blocks._cond_bwd

    def doubled_last_layer(*args, **kw):
        *rest, g_w3, g_b3 = cond_bwd(*args, **kw)
        return (*rest, 2.0 * g_w3, 2.0 * g_b3)

    monkeypatch.setattr(sumnet.blocks, "_cond_bwd", doubled_last_layer)
    status = _gradcheck_status(capsys, "model")
    assert status["model.cond"] == "FAIL"
    assert {row for row, verdict in status.items() if verdict == "FAIL"} == {"model.cond"}


SCAN_ROWS = [
    "cross_merge.row_fwd", "cross_merge.row_bwd", "cross_merge.col_fwd", "cross_merge.col_bwd",
    "ss2d.input", "ss2d.input_batched", "ss2d.row_fwd.a_log", "ss2d.col_bwd.a_log",
    "ss2d.row_bwd.w_delta", "ss2d.col_fwd.d_skip", "ss2d.row_fwd.w_b", "ss2d.row_bwd.w_c",
    "ss2d.col_fwd.v_delta", "ss2d.col_bwd.b_delta", "ss2d.shared",
]
BLOCKS_ROWS = [
    "layer_norm.input", "layer_norm.input_batched", "layer_norm.gamma", "layer_norm.beta",
    "depthwise_conv.input", "depthwise_conv.kernel", "depthwise_conv.bias", "linear.weight",
    "linear.bias", "linear.input", "patch_embed.input", "patch_embed.proj_weight",
    "downsample.input", "downsample.norm_gamma", "up_step.input", "up_step.skip",
    "up_step.proj_weight", "up_step.skip_weight", "head.input", "head.readout_weight",
    "vss.input", "vss.gate_weight", "gated_block.input", "gated_block.knobs",
    "conditioner.tokens", "conditioner.l1_weight", "conditioner.l3_weight",
    "conditioner.one_hot.l1_weight",
]
OBJECTIVE_ROWS = ["composite_loss", "composite_loss.literal", "composite_loss.batch"]


@pytest.mark.parametrize("module,names", [("scan", SCAN_ROWS), ("blocks", BLOCKS_ROWS),
                                          ("objective", OBJECTIVE_ROWS)])
def test_gradcheck_rows_are_pinned(module, names):
    # a row dropped or renamed with the code it probed must show up here
    assert [name for name, _, _ in run_suite(module)] == names


# ---------------------------------------------------------------------------
# bench-scan


def test_bench_scan_reports_rows_and_slope(capsys):
    assert cli.main(["bench-scan", "--lengths", "64,128", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "L,seconds"
    assert lines[1].startswith("64,") and lines[2].startswith("128,")
    tag, value = lines[3].split(",")
    assert tag == "slope"
    float(value)


@pytest.mark.parametrize("lengths", ["64", "abc,64", ""])
def test_bench_scan_rejects_bad_lengths(lengths, capsys):
    assert cli.main(["bench-scan", "--lengths", lengths, "--repeats", "1"]) == 2


@pytest.mark.parametrize("repeats", ["0", "-2"])
def test_bench_scan_rejects_non_positive_repeats(repeats, capsys):
    assert cli.main(["bench-scan", "--lengths", "64,128", "--repeats", repeats]) == 2
    assert "--repeats" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# argparse plumbing


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
