"""Conditional selective-scan U-Net for multi-domain saliency, desk scale.

Layout:
  rng        deterministic splitmix64 randomness
  tensor     float32/float64 autodiff tape (the only math substrate);
             models compute in float32 by default, gradient checks in float64
  scan       directional flatten + selective state-space recurrence
  blocks     norm/conv/resampling layers, gated scan blocks, conditioning
  model      full encoder/decoder assembly, Adam, training loop
  objective  differentiable training losses (tape route)
  metrics    strict evaluation metrics (plain numpy route, kept independent)
  data       synthetic scenes, image/map I/O, manifests, checkpoints
  cli        command-line entry points
"""

__version__ = "0.1.0"
