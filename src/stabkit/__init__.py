"""stabkit: exact-arithmetic stability machinery for quiver
representations at desk scale.

The package decides semistability, computes descending-phase
filtrations two independent ways, measures slicing and stability-space
distances on finite testsets, applies the universal-cover plane action
with exact branch bookkeeping, verifies heart-preserving deformations,
finds walls along charge paths, and classifies numerical charges on a
genus-one curve.

The package root binds nothing but ``__version__``: every name is
imported from the module that defines it, as in
``from stabkit.stability import is_semistable``.
"""

__version__ = "0.1.0"
