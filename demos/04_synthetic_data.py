"""The synthetic multi-domain corpus, inspected end to end.

generate_dataset renders four scene families (natural-mouse, natural-eye,
e-commerce, ui), each paired with a ground-truth saliency map and twenty
fixation points sampled from the stored 8-bit map.  Because fixations are
drawn from the quantized map — never from the analytic one — scoring the
ground truth against itself is a perfect-oracle check: CC and SIM hit 1,
KL hits 0, and AUC stays above 0.99 on every sample.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from sumnet.data import generate_dataset, load_samples, read_manifest
from sumnet.metrics import evaluate_sample, summarize

DOMAINS = ("natural-mouse", "natural-eye", "ecommerce", "ui")


def main():
    with tempfile.TemporaryDirectory(prefix="sumnet-demo-") as tmp:
        manifests = generate_dataset(Path(tmp), n_per_domain=3, size=64, seed=14)
        print("wrote corpus under", tmp, file=sys.stderr)  # a fresh temp path each run
        for fold, path in sorted(manifests.items()):
            print(f"  {fold}: {len(read_manifest(path))} rows")
        samples = load_samples(manifests["train"])

    s = samples[0]
    print(f"\nfirst sample {s.sid}: image {s.image.shape}, "
          f"map mass {s.smap.sum():.4f}, fixations {int(s.fmap.sum())}")

    reports = [evaluate_sample(s.smap, s.smap, s.fmap, s.sid) for s in samples]
    stats = summarize(reports)
    print("\nground truth scored against itself:")
    for key in ("cc", "sim", "kld", "auc"):
        print(f"  {key}: mean {stats[key]['mean']:.6f}")
    print("  min per-sample auc:", round(min(r.auc for r in reports), 5))

    # Domain texture: mouse-tracking maps are rendered wider than eye maps.
    spread = {d: [] for d in range(4)}
    for s in samples:
        spread[s.label].append(int(np.count_nonzero(s.smap)))
    for d, cells in sorted(spread.items()):
        if cells:
            print(f"positive-support cells, {DOMAINS[d]}: mean {np.mean(cells):.0f}")


if __name__ == "__main__":
    main()
