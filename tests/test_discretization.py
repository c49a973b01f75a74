import numpy as np
import pytest

from treemg.discretization import (
    CORNER_OFFSETS,
    ELEMENT_MATRIX_UNIT,
    boundary_value,
    constant_field,
    epsilon_at,
    epsilon_cells,
    half_domain_jump,
    interior_stencil,
    needle_inclusion,
    skew_checkerboard,
)
from treemg.operators import ElementOperator, assemble_stencil_table


def quadrature_element_matrix(eps):
    """Independent oracle: 2x2 Gauss integration of the bilinear shape
    gradients over the unit cell."""
    g = 0.5 / np.sqrt(3.0)
    pts = [(0.5 + sx * g, 0.5 + sy * g) for sx in (-1, 1) for sy in (-1, 1)]

    def grad(corner, x, y):
        cx, cy = corner
        sx = (2 * cx - 1)
        sy = (2 * cy - 1)
        fx = (1 - x) if cx == 0 else x
        fy = (1 - y) if cy == 0 else y
        return np.array([sx * fy, sy * fx])

    m = np.zeros((4, 4))
    for a, ca in enumerate(CORNER_OFFSETS):
        for b, cb in enumerate(CORNER_OFFSETS):
            m[a, b] = sum(grad(ca, x, y) @ grad(cb, x, y) for x, y in pts) * 0.25
    return eps * m


def test_element_matrix_matches_quadrature_oracle():
    assert np.allclose(ELEMENT_MATRIX_UNIT, quadrature_element_matrix(1.0), atol=1e-14)
    assert np.allclose(3.7 * ELEMENT_MATRIX_UNIT, quadrature_element_matrix(3.7), atol=1e-14)
    # frozen analytic entries
    m = ELEMENT_MATRIX_UNIT
    assert m[0, 0] == pytest.approx(2.0 / 3.0)
    assert m[0, 3] == pytest.approx(-1.0 / 3.0)
    assert m[0, 1] == pytest.approx(-1.0 / 6.0)


def test_element_matrix_scales_linearly():
    # the per-cell element matrices of the assembled operator scale with eps
    rng = np.random.default_rng(13)
    eps = rng.uniform(0.2, 2.0, size=(4, 4))
    x = rng.standard_normal((5, 5))
    assert np.allclose(ElementOperator(10.0 * eps).apply(x), 10.0 * ElementOperator(eps).apply(x))
    assert np.allclose(assemble_stencil_table(10.0 * eps), 10.0 * assemble_stencil_table(eps))


def test_element_matrix_row_sums_zero():
    for eps in (1.0, 0.3, 17.5):
        m = eps * ELEMENT_MATRIX_UNIT
        assert np.abs(m.sum(axis=0)).max() < 1e-14
        assert np.abs(m.sum(axis=1)).max() < 1e-14
        assert np.allclose(m, m.T)


def test_interior_stencil_from_four_elements():
    # dense-assembly oracle: sum the four adjacent element-matrix rows
    want = np.zeros((3, 3))
    for di in (0, 1):
        for dj in (0, 1):
            own = CORNER_OFFSETS.index((1 - di, 1 - dj))
            for other, (ca, cb) in enumerate(CORNER_OFFSETS):
                want[ca - (1 - di) + 1, cb - (1 - dj) + 1] += ELEMENT_MATRIX_UNIT[own, other]
    assert np.allclose(interior_stencil(1.0), want, atol=1e-14)
    assert np.allclose(interior_stencil(1.0), (1.0 / 3.0) * np.array(
        [[-1, -1, -1], [-1, 8, -1], [-1, -1, -1]], dtype=float))


def test_assemble_vertex_stencil_mixed_eps():
    # two elements eps=1 and two eps=0.1 around vertex (1, 1) of a 2x2 cell
    # grid, cell (di, dj) towards offset (2*di-1, 2*dj-1): weighted element
    # sum oracle
    eps = np.array([[1.0, 0.1], [1.0, 0.1]])
    got = assemble_stencil_table(eps)[1, 1]
    want = np.zeros((3, 3))
    for di in (0, 1):
        for dj in (0, 1):
            own = CORNER_OFFSETS.index((1 - di, 1 - dj))
            m = eps[di, dj] * ELEMENT_MATRIX_UNIT
            for other, (ca, cb) in enumerate(CORNER_OFFSETS):
                want[ca - (1 - di) + 1, cb - (1 - dj) + 1] += m[own, other]
    assert np.allclose(got, want, atol=1e-14)
    assert abs(got.sum()) < 1e-13  # constants stay in the nullspace


def test_assemble_vertex_stencil_commutes_with_scaling():
    eps = np.full((2, 2), 3.7)
    assert np.allclose(assemble_stencil_table(eps)[1, 1], 3.7 * interior_stencil(1.0))


def test_boundary_values():
    assert boundary_value(0.3, 0.0) == 1.0
    assert boundary_value(0.0, 0.0) == 1.0
    assert boundary_value(1.0, 0.0) == 1.0
    assert boundary_value(0.0, 0.4) == 0.0
    assert boundary_value(1.0, 1.0) == 0.0


def test_constant_field():
    f = constant_field(1.0)
    for x, y in ((0.0, 0.0), (0.5, 0.5), (1.0, 0.3)):
        assert epsilon_at(f, x, y) == 1.0


def test_half_jump_split():
    f = half_domain_jump(2)
    assert epsilon_at(f, 0.25, 0.7) == 1.0
    assert epsilon_at(f, 0.75, 0.7) == pytest.approx(1e-2)
    # on the split: lesser side wins
    assert epsilon_at(f, 0.5, 0.1) == 1.0


def test_needle_geometry():
    f = needle_inclusion(3)
    # just inside the needle near the domain centre: three orders contrast
    inside = epsilon_at(f, 0.5, 0.499)
    outside = epsilon_at(f, 0.55, 0.499)
    assert inside / outside == pytest.approx(1e3)
    assert epsilon_at(f, 0.5, 0.6) == pytest.approx(1e-3)  # above the tip
    assert epsilon_at(f, 0.52, 0.2) == pytest.approx(1e-3)  # beside it


def test_skew_checkerboard_regions():
    f = skew_checkerboard(1)
    assert epsilon_at(f, 0.2, 0.9) == 1.0  # top left
    assert epsilon_at(f, 0.8, 0.1) == 1.0  # bottom right
    assert epsilon_at(f, 0.8, 0.9) == pytest.approx(0.1)
    assert epsilon_at(f, 0.2, 0.1) == pytest.approx(0.1)
    # point on the steep line: tie-break assigns the lesser side
    on_line = epsilon_at(f, 0.5, 0.0)
    below = epsilon_at(f, 0.51, 0.0)
    assert on_line == below


def test_epsilon_values_restricted_to_contrast_pair():
    for field in (half_domain_jump(4), needle_inclusion(2), skew_checkerboard(5)):
        cells = epsilon_cells(field, 3)
        assert set(np.unique(cells)) <= {1.0, field.low}
        assert (cells > 0).all()


def test_epsilon_cells_matches_pointwise_sampling():
    field = skew_checkerboard(2)
    cells = epsilon_cells(field, 2)
    n = 9
    for i in range(n):
        for j in range(n):
            assert cells[i, j] == epsilon_at(field, (i + 0.5) / n, (j + 0.5) / n)


def test_field_validation():
    with pytest.raises(ValueError):
        half_domain_jump(0)
    with pytest.raises(ValueError):
        needle_inclusion(6)
    with pytest.raises(ValueError):
        constant_field(-2.0)
