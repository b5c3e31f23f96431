"""A seeded byte-mutation fuzz of every reader, through `cli.main`: about 100
corruptions of each input kind by AFL's deterministic mutations, bit and
byte flips, truncation, insertion and duplication
(https://lcamtuf.coredump.cx/afl/technical_details.txt).  Every outcome is
exit 0 or 2, never an escaped exception, and every exit-2 message names the
corrupted file."""

import json

import pytest

from sumnet import cli
from sumnet.data import read_manifest
from sumnet.rng import SplitMix64, derive


def mutate(data: bytes, rng: SplitMix64) -> bytes:
    buf = bytearray(data)
    at, op = rng.next_below(len(buf)), rng.next_below(4)
    if op == 0:  # flip one bit, or the whole byte
        buf[at] ^= 0xFF if rng.next_below(2) else 1 << rng.next_below(8)
    elif op == 1:
        del buf[at:]
    elif op == 2:  # insert 1-8 random bytes
        buf[at:at] = bytes(rng.next_below(256) for _ in range(1 + rng.next_below(8)))
    else:  # duplicate a run of 1-64 bytes in place
        buf[at:at] = buf[at:at + 1 + rng.next_below(min(64, len(buf) - at))]
    return bytes(buf)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """{kind: (original file, argv for a mutant at path)} over a tiny corpus,
    its train config (the reproducibility test's, one epoch, paths relative
    to it) and a checkpoint trained from it apart from the config's out_dir."""
    corpus = tmp_path_factory.mktemp("fuzz")
    assert cli.main(["generate-data", "--out", str(corpus), "--per-domain", "3",
                     "--size", "32", "--seed", "7"]) == 0
    config, manifest, trained = corpus / "train.json", corpus / "manifest_val.tsv", corpus / "t"
    config.write_text(json.dumps({
        "input_size": 32, "base_channels": 4, "state_size": 2,
        "encoder_depths": [1, 1, 1, 1], "decoder_depths": [1, 1, 1, 1],
        "token_dim": 16, "epochs": 1, "batch_size": 8, "lr": 1e-4, "seed": 0,
        "train_manifest": "manifest_train.tsv", "val_manifest": manifest.name, "out_dir": "run",
    }), encoding="utf-8")
    assert cli.main(["train", "--config", str(config), "--out-dir", str(trained)]) == 0
    checkpoint = trained / "checkpoint.ckpt"
    return {
        "manifest": (manifest, lambda p: ["eval", "--oracle", "--manifest", p]),
        "config": (config, lambda p: ["train", "--config", p]),
        "image": (corpus / read_manifest(manifest)[0].image, lambda p: [
            "infer", "--checkpoint", str(checkpoint), "--image", p, "--domain", "ui",
            "--out", p + ".pgm"]),
        "checkpoint": (checkpoint, lambda p: ["eval", "--manifest", str(manifest),
                                              "--checkpoint", p]),
    }


@pytest.mark.parametrize("kind", ["manifest", "config", "image", "checkpoint"])
def test_every_corrupted_input_exits_0_or_2_naming_the_file(kind, inputs, capsys):
    original, argv = inputs[kind]
    data, rng = original.read_bytes(), SplitMix64(derive(0, "fuzz", kind))
    path = original.with_name(f"mutant{original.suffix}")  # a config's paths still resolve
    wrong = []
    for i in range(100):
        path.write_bytes(mutate(data, rng))
        capsys.readouterr()
        try:
            code = cli.main(argv(str(path)))
        except Exception as exc:  # an escaped exception is a finding, not a crash
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code not in (0, 2) or code == 2 and str(path) not in err:
            wrong.append((i, code, err[-300:]))
    assert not wrong, wrong
