"""Bilinear finite-element discretization of -div(eps grad u) = 0 on the unit square.

Material fields come in four flavours: a constant field, a half-domain jump,
a thin needle inclusion attached to the heated boundary, and a skew
checkerboard cut by two non-axis-aligned lines.  The contrast is always
between 1 and 10**-k.  Every field is sampled piecewise constant per element
at the element midpoint, which keeps jump geometry unambiguous on every
level of the tripartitioned mesh.

Boundary data is u = 1 on the edge y = 0 (corners included) and u = 0 on the
other three edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EpsilonField",
    "constant_field",
    "half_domain_jump",
    "needle_inclusion",
    "skew_checkerboard",
    "epsilon_at",
    "boundary_value",
    "ELEMENT_MATRIX_UNIT",
    "CORNER_OFFSETS",
    "interior_stencil",
]

# Corner numbering of a cell, used by every element-wise loop in the package.
CORNER_OFFSETS = ((0, 0), (1, 0), (0, 1), (1, 1))

# Stiffness matrix of one bilinear element with eps = 1.  In 2D the entries
# are independent of the element size h.
ELEMENT_MATRIX_UNIT = np.array(
    [
        [2.0 / 3.0, -1.0 / 6.0, -1.0 / 6.0, -1.0 / 3.0],
        [-1.0 / 6.0, 2.0 / 3.0, -1.0 / 3.0, -1.0 / 6.0],
        [-1.0 / 6.0, -1.0 / 3.0, 2.0 / 3.0, -1.0 / 6.0],
        [-1.0 / 3.0, -1.0 / 6.0, -1.0 / 6.0, 2.0 / 3.0],
    ]
)


@dataclass(frozen=True)
class EpsilonField:
    """Descriptor of a material parameter field.

    variant is one of "constant", "half-jump", "needle", "skew".  For the
    jump variants the contrast exponent k must lie in 1..5; the field values
    are then {1, 10**-k}.
    """

    variant: str
    k: int = 0
    value: float = 1.0

    def __post_init__(self):
        if self.variant not in ("constant", "half-jump", "needle", "skew"):
            raise ValueError(f"unknown epsilon field variant {self.variant!r}")
        if self.variant == "constant":
            if self.value <= 0.0:
                raise ValueError("constant epsilon must be positive")
        elif not 1 <= self.k <= 5:
            raise ValueError("contrast exponent k must be in 1..5")

    @property
    def low(self) -> float:
        return 10.0 ** (-self.k)


def constant_field(value: float = 1.0) -> EpsilonField:
    return EpsilonField("constant", value=value)


def half_domain_jump(k: int) -> EpsilonField:
    return EpsilonField("half-jump", k=k)


def needle_inclusion(k: int) -> EpsilonField:
    return EpsilonField("needle", k=k)


def skew_checkerboard(k: int) -> EpsilonField:
    return EpsilonField("skew", k=k)


# Needle geometry: a strip of width 0.02 attached to the heated bottom edge,
# reaching half-way up the domain.  Inside the strip the material is the
# stiff one (eps = 1), outside it is 10**-k.
_NEEDLE_HALF_WIDTH = 0.01
_NEEDLE_LENGTH = 0.5


def epsilon_at(field: EpsilonField, x: float, y: float) -> float:
    """Evaluate the material parameter at a point of the unit square.

    Points exactly on a dividing line belong to the region on the lesser
    side of the line (strict inequality on the greater side), so the
    evaluation is total and deterministic.
    """
    if field.variant == "constant":
        return field.value
    low = field.low
    if field.variant == "half-jump":
        # Vertical split at x = 0.5; the left half is the stiff one.  The
        # split never coincides with a tripartition grid line.
        return 1.0 if not x > 0.5 else low
    if field.variant == "needle":
        inside = abs(x - 0.5) <= _NEEDLE_HALF_WIDTH and y <= _NEEDLE_LENGTH
        return 1.0 if inside else low
    # Skew checkerboard: the lines y = 5x - 2.5 and y = 0.2x + 0.5 cut the
    # square into four regions; the regions on equal sides of both lines
    # (top-left, bottom-right) are stiff.
    above_steep = y - (5.0 * x - 2.5) > 0.0
    above_flat = y - (0.2 * x + 0.5) > 0.0
    return 1.0 if above_steep == above_flat else low


def epsilon_cells(field: EpsilonField, level: int) -> np.ndarray:
    """Midpoint samples of the field on the full cell grid of a level.

    Returns an array of shape (3**level, 3**level) indexed [i, j] with i
    along x and j along y.
    """
    n = 3**level
    if field.variant == "constant":
        return np.full((n, n), field.value)
    mids = (np.arange(n) + 0.5) / n
    x = np.broadcast_to(mids[:, None], (n, n))
    y = np.broadcast_to(mids[None, :], (n, n))
    low = field.low
    if field.variant == "half-jump":
        return np.where(x > 0.5, low, 1.0)
    if field.variant == "needle":
        inside = (np.abs(x - 0.5) <= _NEEDLE_HALF_WIDTH) & (y <= _NEEDLE_LENGTH)
        return np.where(inside, 1.0, low)
    above_steep = (y - (5.0 * x - 2.5)) > 0.0
    above_flat = (y - (0.2 * x + 0.5)) > 0.0
    return np.where(above_steep == above_flat, 1.0, low)


def boundary_value(x: float, y: float) -> float:
    """Dirichlet data: 1 on the edge y = 0, 0 on the other edges."""
    return 1.0 if y == 0.0 else 0.0


def interior_stencil(eps: float = 1.0) -> np.ndarray:
    """3x3 operator stencil of an interior vertex with constant eps."""
    return eps / 3.0 * np.array([[-1.0, -1.0, -1.0], [-1.0, 8.0, -1.0], [-1.0, -1.0, -1.0]])

