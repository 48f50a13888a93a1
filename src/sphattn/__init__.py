"""Spherical-attention-gated equivariant force fields.

Continuous attention over a quadrature grid on the unit sphere, used to
gate messages in a small exactly-equivariant message-passing potential.
Ships its own reverse-mode autodiff core, a trainer, a Langevin MD
harness, and a CLI for training, simulation, and attention sweeps.

The package imports none of its submodules: import each by name. So
`python -m sphattn.cli --threads N` loads numpy only after it has
pinned the BLAS thread pools.
"""

__all__ = ["attention", "autodiff", "backbone", "field", "geometry", "md", "training"]
__version__ = "0.1.0"
