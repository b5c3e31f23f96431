"""Conditioning a gated scan block with five scalar knobs.

`gated_block(f, w, knobs)` is the C-VSS block: the plain gated scan block
(`knobs=None`) with the knobs (a1, b1, a2, b2, a3), one [B, 5] array or a
[5] one, folded into the affine params of its two layer norms — (a1 gamma1, a1 beta1 + b1) and
((a2 a3) gamma2, a2 beta2 + b2) — so both run the same grid-sized steps.
Two facts worth seeing live:

  * at identity knobs (1, 0, 1, 0, 1) the conditional block IS the plain
    block, bit for bit — multiplying by 1.0 and adding 0.0 are exact in
    IEEE arithmetic, so an untrained conditioner cannot perturb the model;
  * once the knob head moves away from zero, different domain labels
    produce genuinely different feature maps from identical pixels.
"""

import dataclasses

import numpy as np

from sumnet import tensor as T
from sumnet.blocks import conditioner, gated_block, init_conditioner, init_vss
from sumnet.rng import SplitMix64


def main():
    rng = SplitMix64(21)
    w = init_vss(channels=8, state_size=4, seed=3, name="blk")
    f = T.Tensor(rng.uniforms(1 * 6 * 6 * 8).reshape(1, 6, 6, 8))

    plain = gated_block(f, w)
    conditioned = gated_block(f, w, np.array([1.0, 0.0, 1.0, 0.0, 1.0]))
    print("identity knobs == plain block:",
          np.array_equal(plain.data, conditioned.data))

    # A fresh conditioner starts at identity because its last layer is
    # zero-initialized: every domain gets the same (1,0,1,0,1).
    cond = init_conditioner(num_domains=4, token_dim=16, seed=5)
    print("knob rows (a1, b1, a2, b2, a3) at init:\n", conditioner(cond, range(4)).data)

    # Nudge the head and the domains separate.
    cond.l3.weight.data = SplitMix64(9).uniforms(64 * 5).reshape(64, 5) * 0.3
    outs = [gated_block(f, w, conditioner(cond, [d])) for d in range(4)]
    diff = np.max(np.abs(outs[0].data - outs[2].data))
    print("max |domain0 - domain2| after nudging the head:", diff)

    # One-hot mode shares the MLP but swaps the learned prompt table for a
    # fixed table of unit vectors — a strictly smaller hypothesis class.
    oh = conditioner(dataclasses.replace(cond, tokens=T.Tensor(np.eye(4, 16))), [0])
    pr = conditioner(cond, [0])
    print("prompt vs one-hot a1 for domain 0:", float(pr.data[0, 0]), "vs", float(oh.data[0, 0]))


if __name__ == "__main__":
    main()
