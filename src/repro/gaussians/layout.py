"""Parameter layout of a 3D Gaussian primitive.

The paper (Section 2.3) uses 59 trainable parameters per Gaussian:

====================  =====  =========================================
attribute             width  storage convention
====================  =====  =========================================
``mean``              3      world-space position, raw
``scale``             3      log of the per-axis extent (``exp`` on use)
``quat``              4      rotation quaternion ``(w, x, y, z)``, raw
                             (normalized on use)
``opacity``           1      logit (``sigmoid`` on use)
``sh``                48     spherical-harmonics coefficients, degree 3:
                             16 coefficients per RGB channel
====================  =====  =========================================

The *geometric* attributes are ``mean + scale + quat`` (10 of 59), which is
exactly the subset GS-Scale's selective offloading pins on the GPU
(Section 4.2.1): 10/59 = 17% of parameter memory.
"""

from __future__ import annotations

from dataclasses import dataclass

MEAN_DIM = 3
SCALE_DIM = 3
QUAT_DIM = 4
OPACITY_DIM = 1
SH_DEGREE = 3
SH_COEFFS_PER_CHANNEL = (SH_DEGREE + 1) ** 2  # 16
SH_DIM = 3 * SH_COEFFS_PER_CHANNEL  # 48

GEOMETRIC_DIM = MEAN_DIM + SCALE_DIM + QUAT_DIM  # 10
NON_GEOMETRIC_DIM = OPACITY_DIM + SH_DIM  # 49
PARAM_DIM = GEOMETRIC_DIM + NON_GEOMETRIC_DIM  # 59

# Fraction of per-Gaussian parameter memory held on the GPU by selective
# offloading (paper: "a modest 17% GPU memory overhead").
GEOMETRIC_FRACTION = GEOMETRIC_DIM / PARAM_DIM

MEAN_SLICE = slice(0, 3)
SCALE_SLICE = slice(3, 6)
QUAT_SLICE = slice(6, 10)
OPACITY_SLICE = slice(10, 11)
SH_SLICE = slice(11, 59)
GEOMETRIC_SLICE = slice(0, GEOMETRIC_DIM)
NON_GEOMETRIC_SLICE = slice(GEOMETRIC_DIM, PARAM_DIM)

BYTES_PER_FLOAT = 4

#: Bytes of trainable state per Gaussian during training: parameters,
#: gradients, and two Adam moments (Section 3.1: "over four times the
#: memory of the Gaussian parameters").
TRAIN_STATE_MULTIPLIER = 4  # param + grad + momentum + variance


@dataclass(frozen=True)
class AttributeSpec:
    """Name and column range of one attribute inside the packed layout."""

    name: str
    start: int
    width: int

    @property
    def sl(self) -> slice:
        """Column slice of this attribute within a packed ``(N, 59)`` array."""
        return slice(self.start, self.start + self.width)


ATTRIBUTES = (
    AttributeSpec("mean", 0, MEAN_DIM),
    AttributeSpec("scale", MEAN_DIM, SCALE_DIM),
    AttributeSpec("quat", MEAN_DIM + SCALE_DIM, QUAT_DIM),
    AttributeSpec("opacity", GEOMETRIC_DIM, OPACITY_DIM),
    AttributeSpec("sh", GEOMETRIC_DIM + OPACITY_DIM, SH_DIM),
)

GEOMETRIC_ATTRIBUTES = ("mean", "scale", "quat")
NON_GEOMETRIC_ATTRIBUTES = ("opacity", "sh")


@dataclass(frozen=True)
class ColumnBlock:
    """A named, contiguous column range of the packed ``(N, 59)`` layout.

    Parameter-placement stores (:mod:`repro.core.stores`) each own one
    block: GS-Scale pins the ``geometric`` block on the device and offloads
    the ``non_geometric`` block to the host. A block knows how to map
    packed-layout column slices into its own local coordinates, so code
    written against the packed layout (learning-rate vectors, geometry
    access for culling) works on a store that only holds its slice.
    """

    name: str
    start: int
    stop: int

    @property
    def sl(self) -> slice:
        """Column slice of this block within the packed layout."""
        return slice(self.start, self.stop)

    @property
    def dim(self) -> int:
        """Number of columns in the block."""
        return self.stop - self.start

    def contains(self, packed: slice) -> bool:
        """Whether a packed-layout column slice falls inside this block."""
        return self.start <= packed.start and packed.stop <= self.stop

    def local(self, packed: slice) -> slice:
        """Map a packed-layout column slice into block-local columns.

        Raises:
            ValueError: if ``packed`` is not fully inside the block.
        """
        if not self.contains(packed):
            raise ValueError(
                f"slice [{packed.start}:{packed.stop}) outside block "
                f"{self.name!r} [{self.start}:{self.stop})"
            )
        return slice(packed.start - self.start, packed.stop - self.start)


ALL_BLOCK = ColumnBlock("all", 0, PARAM_DIM)
GEOMETRIC_BLOCK = ColumnBlock("geometric", 0, GEOMETRIC_DIM)
NON_GEOMETRIC_BLOCK = ColumnBlock("non_geometric", GEOMETRIC_DIM, PARAM_DIM)


def attribute(name: str) -> AttributeSpec:
    """Return the :class:`AttributeSpec` for ``name``.

    Raises:
        KeyError: if ``name`` is not one of the five attributes.
    """
    for spec in ATTRIBUTES:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown Gaussian attribute: {name!r}")


def param_bytes(num_gaussians: int, dim: int = PARAM_DIM) -> int:
    """Bytes needed to store one float32 copy of ``dim`` params per Gaussian."""
    return num_gaussians * dim * BYTES_PER_FLOAT


def train_state_bytes(num_gaussians: int, dim: int = PARAM_DIM) -> int:
    """Bytes of the full training state (params + grads + 2 Adam moments)."""
    return TRAIN_STATE_MULTIPLIER * param_bytes(num_gaussians, dim)
