"""A complete (tiny) training run: data, loop, checkpoint, reload.

The loop is deterministic end to end — seeded shuffles, a fixed Adam
update order, and no timestamps anywhere — so rerunning this script
prints the same numbers and writes the same checkpoint bytes.
"""

import tempfile
from pathlib import Path

import numpy as np

from sumnet.data import generate_dataset, load_checkpoint, load_samples, save_checkpoint
from sumnet.model import Model, SumConfig, train


def main():
    with tempfile.TemporaryDirectory(prefix="sumnet-demo-") as tmp:
        run(Path(tmp))


def run(root: Path):
    """Write a corpus under `root`, train on it, checkpoint and reload."""
    manifests = generate_dataset(root, n_per_domain=5, size=32, seed=2)
    train_samples = load_samples(manifests["train"])
    val_samples = load_samples(manifests["val"])

    cfg = SumConfig(input_size=32, base_channels=4, state_size=2,
                    encoder_depths=(1, 1, 1, 1), decoder_depths=(1, 1, 1, 1),
                    token_dim=16, epochs=3, batch_size=8, lr=3e-4, seed=0)
    model = Model(cfg)
    print(f"model: {model.num_parameters()} parameters, "
          f"{cfg.placement}/{cfg.conditioning} conditioning")

    report = train(model, train_samples, val_samples)
    for row in report.rows:
        print(f"epoch {row.epoch}: lr={row.lr:.1e} train_loss={row.train_loss:8.4f} "
              f"val_cc={row.val_cc:.4f} val_kld={row.val_kld:.4f}")
    print("relative f-scores by epoch:", [round(f, 3) for f in report.f_scores])
    print("selected epoch:", report.best_epoch)

    ckpt = root / "demo.ckpt"
    save_checkpoint(ckpt, model.state_arrays())
    clone = Model.from_state(load_checkpoint(ckpt))
    print("reloaded config equals the trained one:", clone.cfg == cfg)

    img = np.stack([s.image for s in val_samples])
    labels = [s.label for s in val_samples]
    drift = np.max(np.abs(model.predict(img, labels) - clone.predict(img, labels)))
    print(f"reloaded-model prediction drift: {drift:.2e} (float32 storage)")


if __name__ == "__main__":
    main()
