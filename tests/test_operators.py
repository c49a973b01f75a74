import numpy as np
import pytest

from treemg.discretization import (
    CORNER_OFFSETS,
    ELEMENT_MATRIX_UNIT,
    epsilon_cells,
    half_domain_jump,
    interior_stencil,
    needle_inclusion,
    skew_checkerboard,
)
from treemg.operators import (
    _padded,
    _prolong_planes,
    _restrict_planes,
    ElementOperator,
    TableOperator,
    TransferOps,
    assemble_stencil_table,
    boxmg_prolongation,
    geometric_prolongation,
    prolong_values,
    restrict_dlinear,
    ritz_galerkin_coarse,
    smoothed_restriction_table,
)
from treemg.oracle import DenseHierarchy, DenseLevel, dense_boxmg_p
from treemg.solvers import ReferenceEngine, SolverConfig
from treemg.spacetree import VertexKind, build_regular

# Regression values of the smoothed restriction for eps = 1, omega = 1.
# Independently derived by composing R, the 9-point operator and the inverse
# diagonal 3/8 by hand: centre 4/9, face neighbour 1/6, far corner -1/72.
SMOOTHED_CENTER = 4.0 / 9.0
SMOOTHED_FACE = 1.0 / 6.0
SMOOTHED_CORNER = -1.0 / 72.0

# The geometric R~ for omega = 1, which the engines compose for their omega.
GEOMETRIC_RTILDE = smoothed_restriction_table(geometric_prolongation(), 1.0)


def geometric_p_planes(nc):
    """The d-linear weights as the offset planes of every coarse vertex."""
    return np.broadcast_to(geometric_prolongation()[:, :, None, None], (5, 5, nc + 1, nc + 1))


def p_table(planes):
    """P's offset planes as a C-contiguous (nc+1, nc+1, 7, 7) table,
    table[i, j, a+3, b+3] the weight at fine offset (a, b), +0.0 at offsets
    +-3: the layout the reference loops of these tests index."""
    table = np.zeros(planes.shape[2:] + (7, 7))
    table[:, :, 1:6, 1:6] = planes.transpose(2, 3, 0, 1)
    return table


def bilinear_function(n):
    x = np.linspace(0.0, 1.0, n + 1)[:, None]
    y = np.linspace(0.0, 1.0, n + 1)[None, :]
    return 1.5 + 0.3 * x - 1.1 * y + 0.7 * x * y


def test_geometric_prolongation_weights():
    p = geometric_prolongation()
    assert p.shape == (5, 5)
    assert p[2, 2] == 1.0
    assert p[3, 2] == pytest.approx(2.0 / 3.0)
    assert p[4, 4] == pytest.approx(1.0 / 9.0)
    # d-linear: the product of the 1D hat functions of width 3, which
    # vanish at offsets +-3
    for a in range(-2, 3):
        for b in range(-2, 3):
            want = max(0.0, 1.0 - abs(a) / 3.0) * max(0.0, 1.0 - abs(b) / 3.0)
            assert p[a + 2, b + 2] == pytest.approx(want)


def test_prolongation_exact_on_bilinear_functions():
    coarse = bilinear_function(3)
    fine = prolong_values(coarse)
    assert np.allclose(fine, bilinear_function(9), atol=1e-14)


def dlinear_footprint(nc, vi, vj):
    """The weights of geometric_prolongation placed at the fine vertices
    3v + o of coarse vertex v, clipped to the fine grid."""
    padded = np.zeros((3 * nc + 5, 3 * nc + 5))
    padded[3 * vi : 3 * vi + 5, 3 * vj : 3 * vj + 5] = geometric_prolongation()
    return padded[2:-2, 2:-2]


@pytest.mark.parametrize("nc", [3, 9])
def test_dlinear_prolong_and_restrict_read_one_weight_definition(nc):
    # P e_v and R e_f are the 5x5 weights bit for bit, border vertices
    # included: column v of P and row v of R are the footprint of v
    foot = np.array([[dlinear_footprint(nc, vi, vj) for vj in range(nc + 1)]
                     for vi in range(nc + 1)])
    for vi in range(nc + 1):
        for vj in range(nc + 1):
            e = np.zeros((nc + 1, nc + 1))
            e[vi, vj] = 1.0
            assert np.array_equal(prolong_values(e), foot[vi, vj])
    for fi in range(3 * nc + 1):
        for fj in range(3 * nc + 1):
            e = np.zeros((3 * nc + 1, 3 * nc + 1))
            e[fi, fj] = 1.0
            assert np.array_equal(restrict_dlinear(e), foot[:, :, fi, fj])


def test_restriction_is_prolongation_transpose():
    rng = np.random.default_rng(7)
    nc = 3
    nf = 3 * nc
    c = rng.standard_normal((nc + 1, nc + 1))
    f = rng.standard_normal((nf + 1, nf + 1))
    lhs = float((prolong_values(c) * f).sum())
    rhs = float((c * restrict_dlinear(f)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_element_operator_matches_table_operator():
    rng = np.random.default_rng(3)
    n = 9
    eps = rng.uniform(0.2, 2.0, size=(n, n))
    op_e = ElementOperator(eps)
    op_t = TableOperator(assemble_stencil_table(eps))
    x = rng.standard_normal((n + 1, n + 1))
    assert np.allclose(op_e.apply(x), op_t.apply(x), atol=1e-13)
    assert np.allclose(op_e.diag(), op_t.diag(), atol=1e-14)
    # table entries are the operator's couplings, probed with unit vectors
    tbl = op_e.table()
    for i, j in ((0, 0), (1, 1), (4, 7), (9, 3)):
        for a in range(3):
            for b in range(3):
                ti, tj = i + a - 1, j + b - 1
                if not (0 <= ti <= n and 0 <= tj <= n):
                    assert tbl[i, j, a, b] == 0.0
                    continue
                e = np.zeros((n + 1, n + 1))
                e[ti, tj] = 1.0
                assert op_e.apply(e)[i, j] == pytest.approx(tbl[i, j, a, b], abs=1e-14)


@pytest.mark.parametrize("n", [1, 3, 9, 27])
def test_operator_rows_are_the_assembled_rows_bit_for_bit(n):
    """Both operators' rows are the assembled table's rows bit for bit,
    on fields with zero cells inside and on the border, at random vertices
    and at every vertex at once."""
    rng = np.random.default_rng(53 + n)
    eps = rng.uniform(0.1, 2.0, size=(n, n))
    eps[rng.random((n, n)) < 0.3] = 0.0
    eps[n - 1, 0] = 0.0
    tbl = assemble_stencil_table(eps)
    every = np.indices((n + 1, n + 1))
    picks = rng.integers(0, n + 1, size=(2, 5, 7))
    for op in (ElementOperator(eps), TableOperator(tbl)):
        for i, j in (every, picks, (picks[0, :, :1], picks[1, :1, :])):
            assert bitwise_equal(op.rows(i, j), tbl[i, j])


def element_apply_by_slices(eps, x):
    """The element operator as 2-D slice passes, one per corner pair: the
    reference for the order of the products and sums."""
    n = eps.shape[0]
    out = np.zeros_like(x)
    for a, (a0, a1) in enumerate(CORNER_OFFSETS):
        acc = np.zeros((n, n))
        for b, (b0, b1) in enumerate(CORNER_OFFSETS):
            acc += ELEMENT_MATRIX_UNIT[a, b] * x[b0 : b0 + n, b1 : b1 + n]
        out[a0 : a0 + n, a1 : a1 + n] += eps * acc
    return out


@pytest.mark.parametrize("n, uniform", [pytest.param(n, None, id=str(n)) for n in (1, 3, 9, 27)]
                         + [pytest.param(9, c, id=f"uniform-{c:g}") for c in (1.0, 0.37)])
def test_element_apply_matches_slice_formula_bitwise(n, uniform):
    rng = np.random.default_rng(n)
    if uniform is None:
        eps = rng.uniform(0.1, 2.0, size=(n, n))
        eps[rng.random((n, n)) < 0.3] = 0.0
        eps[0, n - 1] = 0.0  # a missing cell on the border
    else:
        eps = np.full((n, n), uniform)  # one element loop for every coefficient
    x = rng.standard_normal((n + 1, n + 1))
    got = ElementOperator(eps).apply(x)
    assert np.array_equal(got, element_apply_by_slices(eps, x))
    assert got.flags.c_contiguous


def test_dlinear_transfers_return_c_contiguous_arrays():
    rng = np.random.default_rng(4)
    nc = 9
    c = rng.standard_normal((nc + 1, nc + 1))
    f = rng.standard_normal((3 * nc + 1, 3 * nc + 1))
    geo = TransferOps(None, None)
    for out in (prolong_values(c), restrict_dlinear(f), geo.prolong(c), geo.restrict(f)):
        assert out.flags.c_contiguous


def test_element_operator_interior_stencil():
    op = ElementOperator(np.ones((3, 3)))
    assert np.allclose(op.table()[1, 1], interior_stencil(1.0), atol=1e-14)
    assert op.diag()[1, 1] == pytest.approx(8.0 / 3.0)


def in_range_mask(nc):
    """Offsets whose fine target lies inside the grid, per coarse vertex."""
    nf = 3 * nc
    mask = np.zeros((nc + 1, nc + 1, 7, 7), dtype=bool)
    for oi in range(-3, 4):
        for oj in range(-3, 4):
            ti = 3 * np.arange(nc + 1) + oi
            tj = 3 * np.arange(nc + 1) + oj
            mask[:, :, oi + 3, oj + 3] = ((ti >= 0) & (ti <= nf))[:, None] & (
                (tj >= 0) & (tj <= nf)
            )[None, :]
    return mask


def test_boxmg_equals_bilinear_for_unit_coefficient():
    nc = 3
    eps = np.ones((3 * nc, 3 * nc))
    tbl = assemble_stencil_table(eps)
    p = p_table(boxmg_prolongation(TableOperator(tbl), np.ones((nc, nc), dtype=bool)))
    want = p_table(geometric_p_planes(nc))
    mask = in_range_mask(nc)
    assert np.abs((p - want)[mask]).max() < 1e-12


def test_boxmg_scale_invariance():
    nc = 3
    rng = np.random.default_rng(11)
    eps = rng.uniform(0.5, 1.5, size=(3 * nc, 3 * nc))
    refined = np.ones((nc, nc), dtype=bool)
    p1 = boxmg_prolongation(TableOperator(assemble_stencil_table(eps)), refined)
    p2 = boxmg_prolongation(TableOperator(assemble_stencil_table(4.2 * eps)), refined)
    assert np.abs(p1 - p2).max() < 1e-12


def test_boxmg_c_point_rows_are_unit():
    nc = 3
    eps = np.where(np.add.outer(np.arange(3 * nc), np.arange(3 * nc)) % 2 == 0, 1.0, 0.01)
    p = p_table(boxmg_prolongation(TableOperator(assemble_stencil_table(eps)),
                                   np.ones((nc, nc), dtype=bool)))
    # weights of any coarse vertex at c-point offsets are exactly {0, 1}
    for oi in (-3, 0, 3):
        for oj in (-3, 0, 3):
            vals = p[:, :, oi + 3, oj + 3]
            expect = 1.0 if (oi == 0 and oj == 0) else 0.0
            assert np.abs(vals[1:-1, 1:-1] - expect).max() == 0.0


def test_boxmg_reproduces_constants():
    nc = 3
    rng = np.random.default_rng(5)
    eps = rng.uniform(0.1, 3.0, size=(3 * nc, 3 * nc))
    p = boxmg_prolongation(TableOperator(assemble_stencil_table(eps)), np.ones((nc, nc), dtype=bool))
    ops = TransferOps(p, None)
    ones = np.ones((nc + 1, nc + 1))
    fine = ops.prolong(ones)
    # rows over interior fine vertices sum to one
    assert np.abs(fine[1:-1, 1:-1] - 1.0).max() < 1e-12


def test_boxmg_gamma_jump_matches_flux_oracle():
    # One coarse cell, a material jump between the two fine cell rows next
    # to the bottom edge.  The collapsed 1D system is solved by hand with a
    # dense 2x2 inversion and compared entrywise.
    nc = 1
    eps = np.ones((3, 3))
    eps[:, 0] = np.array([1.0, 1.0, 0.1])  # jump along the bottom row of cells
    tbl = assemble_stencil_table(eps)
    p = boxmg_prolongation(TableOperator(tbl), np.ones((1, 1), dtype=bool))

    def lumped(stn):
        return stn.sum(axis=1)

    c1 = lumped(tbl[1, 0])
    c2 = lumped(tbl[2, 0])
    a = np.array([[c1[1], c1[2]], [c2[0], c2[1]]])
    w_left = np.linalg.solve(a, np.array([-c1[0], 0.0]))
    w_right = np.linalg.solve(a, np.array([0.0, -c2[2]]))
    assert p[3, 2, 0, 0] == pytest.approx(w_left[0], rel=1e-12)
    assert p[4, 2, 0, 0] == pytest.approx(w_left[1], rel=1e-12)
    assert p[0, 2, 1, 0] == pytest.approx(w_right[0], rel=1e-12)
    assert p[1, 2, 1, 0] == pytest.approx(w_right[1], rel=1e-12)
    # the high-eps side attracts weight: fine point next to the stiff side
    # keeps more of the stiff c-point's unit value than bilinear would give
    assert w_left[1] > 1.0 / 3.0


def test_ritz_galerkin_unit_coefficient_equals_rediscretization():
    nc = 3
    nf = 3 * nc
    eps = np.ones((nf, nf))
    tbl = assemble_stencil_table(eps)
    # rows without test functions do not restrict
    dof = np.zeros((nf + 1, nf + 1), dtype=bool)
    dof[1:-1, 1:-1] = True
    coarse = ritz_galerkin_coarse(TableOperator(tbl), geometric_p_planes(nc), dof)
    want = assemble_stencil_table(np.ones((nc, nc)))
    interior = np.s_[1:-1, 1:-1]
    assert np.abs(coarse[interior] - want[interior]).max() < 1e-12


def test_ritz_galerkin_differs_from_rediscretization_under_jump():
    nc = 3
    nf = 3 * nc
    mids = (np.arange(nf) + 0.5) / nf
    eps = np.where(mids[:, None] > 0.5, 0.1, 1.0) * np.ones((1, nf))
    dof = np.zeros((nf + 1, nf + 1), dtype=bool)
    dof[1:-1, 1:-1] = True
    coarse = ritz_galerkin_coarse(TableOperator(assemble_stencil_table(eps)),
                                  geometric_p_planes(nc), dof)
    mids_c = (np.arange(nc) + 0.5) / nc
    eps_c = np.where(mids_c[:, None] > 0.5, 0.1, 1.0) * np.ones((1, nc))
    redisc = assemble_stencil_table(eps_c)
    diff = np.abs(coarse[1:-1, 1:-1] - redisc[1:-1, 1:-1]).max()
    assert diff > 1e-3


def test_smoothed_restriction_matches_printed_values():
    r = GEOMETRIC_RTILDE

    def s(a, b):
        return r[a + 3, b + 3]

    assert s(0, 0) == pytest.approx(SMOOTHED_CENTER, abs=5e-10)
    assert abs(s(0, 0) - 0.444444444) < 5e-4
    for off in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        assert s(*off) == pytest.approx(SMOOTHED_FACE, abs=1e-12)
        assert abs(s(*off) - 0.167) < 5e-4
    for off in ((3, 3), (-3, 3), (3, -3), (-3, -3)):
        assert s(*off) == pytest.approx(SMOOTHED_CORNER, abs=1e-12)
        assert abs(s(*off) - (-0.0139)) < 5e-5
    # remaining printed pattern along the centre row/edge
    assert s(2, 0) == pytest.approx(0.0833, abs=5e-5)
    assert s(3, 0) == pytest.approx(-0.0972, abs=5e-5)
    assert s(3, 1) == pytest.approx(-0.0833, abs=5e-5)
    assert s(3, 2) == pytest.approx(-0.0417, abs=5e-5)
    assert abs(s(1, 1)) < 1e-15
    assert abs(s(2, 1)) < 1e-15


def test_smoothed_restriction_zero_omega():
    assert np.abs(GEOMETRIC_RTILDE * 0.0).max() == 0.0


def test_smoothed_restriction_constant_sum_regression():
    # applied to a constant vector the kept entries sum to zero (the
    # operator inherits the zero row sums of A); frozen after first run
    total = GEOMETRIC_RTILDE.sum()
    assert total == pytest.approx(0.0, abs=1e-13)


def test_smoothed_restriction_table_matches_constant_stencil():
    nc = 3
    rt = smoothed_restriction_table(geometric_p_planes(nc), 0.6)
    want = GEOMETRIC_RTILDE * 0.6
    assert np.abs(rt[1:-1, 1:-1] - want).max() < 1e-13


def test_transfer_ops_geometric_and_table_paths_agree():
    rng = np.random.default_rng(19)
    nc = 3
    coarse = rng.standard_normal((nc + 1, nc + 1))
    fine = rng.standard_normal((3 * nc + 1, 3 * nc + 1))
    geo = TransferOps(None, None)
    tab = TransferOps(geometric_p_planes(nc), None)
    assert np.allclose(geo.prolong(coarse), tab.prolong(coarse), atol=1e-13)
    assert np.allclose(geo.restrict(fine), tab.restrict(fine), atol=1e-13)


# -- table-driven transfers -------------------------------------------------


def boxmg_level(nc, partial):
    """BoxMG P's offset planes from a half-jump tree and the fine vertex
    kinds.

    With partial set only some coarse cells are refined, so the fine level
    has hanging vertices whose P weights are the d-linear ones.
    """
    l = round(np.log(nc) / np.log(3))
    tree = build_regular(max(l, 1), lmax=l + 1, field=half_domain_jump(3))
    # all of the level's cells, or the first half in (i, j) lexicographic order
    mark = np.arange(nc * nc).reshape(nc, nc) < (nc * nc // 2 if partial else nc * nc)
    tree.refine_many([np.zeros_like(r) for r in tree.refined[:l]] + [mark])
    kinds = tree.vertex_kinds(l + 1)
    assert (kinds == VertexKind.HANGING).any() == partial
    raw = assemble_stencil_table(tree.eps[l + 1] * tree.cells_exist(l + 1))
    refined = tree.refined[l] & tree.cells_exist(l)
    p = boxmg_prolongation(TableOperator(raw), refined, kinds == VertexKind.HANGING)
    return p, kinds


def contract_by_definition(table, fine):
    """out[v] = sum_o table[v, o] fine[3v + o], one vertex at a time."""
    nc = table.shape[0] - 1
    nf = 3 * nc
    out = np.zeros((nc + 1, nc + 1))
    for vi in range(nc + 1):
        for vj in range(nc + 1):
            for oi in range(-3, 4):
                for oj in range(-3, 4):
                    fi, fj = 3 * vi + oi, 3 * vj + oj
                    if 0 <= fi <= nf and 0 <= fj <= nf:
                        out[vi, vj] += table[vi, vj, oi + 3, oj + 3] * fine[fi, fj]
    return out


@pytest.mark.parametrize("nc, partial", [(1, False), (3, False), (9, False), (3, True), (9, True)])
def test_table_prolong_of_unit_vectors_reproduces_weights(nc, partial):
    planes, kinds = boxmg_level(nc, partial)
    p = p_table(planes)
    # weights towards fine vertices outside the grid are dropped up front
    assert np.abs(p[~in_range_mask(nc)]).max() == 0.0
    # weights towards hanging fine vertices are the d-linear ones
    geo = np.pad(geometric_prolongation(), 1)
    hanging = 0
    for vi, vj, a, b in np.argwhere(in_range_mask(nc)):
        if kinds[3 * vi + a - 3, 3 * vj + b - 3] == VertexKind.HANGING:
            assert p[vi, vj, a, b] == geo[a, b]
            hanging += 1
    assert (hanging > 0) == partial
    ops = TransferOps(planes, None)
    padded = np.zeros((3 * nc + 7, 3 * nc + 7))
    for vi in range(nc + 1):
        for vj in range(nc + 1):
            e = np.zeros((nc + 1, nc + 1))
            e[vi, vj] = 1.0
            padded[:] = 0.0
            padded[3 * vi : 3 * vi + 7, 3 * vj : 3 * vj + 7] = p[vi, vj]
            assert np.array_equal(ops.prolong(e), padded[3:-3, 3:-3])


@pytest.mark.parametrize("partial", [False, True])
def test_table_restrict_is_prolong_transpose(partial):
    rng = np.random.default_rng(23)
    nc = 9
    ops = TransferOps(boxmg_level(nc, partial)[0], None)
    c = rng.standard_normal((nc + 1, nc + 1))
    f = rng.standard_normal((3 * nc + 1, 3 * nc + 1))
    lhs = float((ops.prolong(c) * f).sum())
    rhs = float((c * ops.restrict(f)).sum())
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0)
    assert np.allclose(ops.restrict(f), contract_by_definition(p_table(ops.p_planes), f),
                       atol=1e-13)


@pytest.mark.parametrize("source", ["boxmg", "partial", "graded"])
def test_boxmg_restrict_smoothed_is_the_composed_table(source, graded):
    """With P's planes, restrict_smoothed applies omega R (c f), c = A
    diag(A)^-1 of the unit operator; that is the contraction with
    smoothed_restriction_table(planes, omega) to 1e-14 of the summed
    magnitudes of its terms, at every coarse vertex."""
    rng = np.random.default_rng(29)
    if source == "partial":
        cases = [("partial", boxmg_level(9, partial=True)[0])]
    else:
        cases = p_planes_of(source, graded)
    for name, planes in cases:
        nc = planes.shape[2] - 1
        fine = signed_zero_field(rng, (3 * nc + 1, 3 * nc + 1))
        got = TransferOps(planes, omega=0.6).restrict_smoothed(fine)
        want, mag = restrict_by_loop(smoothed_restriction_table(planes, 0.6), fine)
        assert (np.abs(got - want) <= 1e-14 * mag).all(), name


def test_geometric_restrict_smoothed_matches_constant_stencil():
    rng = np.random.default_rng(31)
    nc = 9
    f = rng.standard_normal((3 * nc + 1, 3 * nc + 1))
    const = GEOMETRIC_RTILDE * 0.6
    got = TransferOps(None, const).restrict_smoothed(f)
    want = contract_by_definition(np.broadcast_to(const, (nc + 1, nc + 1, 7, 7)), f)
    assert np.allclose(got, want, atol=1e-13)


def smoothed_canvas_by_definition(p, omega):
    """R~[v, j + s] = omega * sum_j p[v, j] A1[s] / diag(A1) for the
    unit-coefficient operator A1, one vertex at a time, sources j in
    lexicographic order, on the whole 9x9 footprint of offsets -4..4."""
    nc = p.shape[0] - 1
    a1 = interior_stencil(1.0)
    out = np.zeros((nc + 1, nc + 1, 9, 9))
    for vi in range(nc + 1):
        for vj in range(nc + 1):
            for ji in range(-3, 4):
                for jj in range(-3, 4):
                    for si in range(3):
                        for sj in range(3):
                            ti, tj = ji + si - 1, jj + sj - 1
                            w = p[vi, vj, ji + 3, jj + 3]
                            out[vi, vj, ti + 4, tj + 4] += w * (a1[si, sj] * (3.0 / 8.0))
    return out * omega


def smoothed_table_by_definition(p, omega):
    """The 7x7 offsets -3..3 of smoothed_canvas_by_definition.  For a P
    with no weight at offsets +-3 this is all of the composition (see
    test_smoothed_composition_leaves_outer_ring_empty)."""
    return smoothed_canvas_by_definition(p, omega)[:, :, 1:-1, 1:-1]


@pytest.mark.parametrize("flavor, partial", [("geometric", False), ("boxmg", False),
                                             ("boxmg", True)])
def test_smoothed_composition_leaves_outer_ring_empty(flavor, partial):
    """P has no weight at offsets +-3, so the 9x9 composition of R~ is zero
    on its outer ring and the 7x7 table drops nothing."""
    nc = 9
    p = p_table(geometric_p_planes(nc) if flavor == "geometric" else boxmg_level(nc, partial)[0])
    canvas = smoothed_canvas_by_definition(p, 0.6)
    ring = np.ones((9, 9), dtype=bool)
    ring[1:-1, 1:-1] = False
    assert np.abs(canvas[:, :, ring]).max() == 0.0
    # the ring's neighbours do carry weight, so the footprint is tight
    assert np.abs(canvas[:, :, 1, 1:-1]).max() > 0.0


@pytest.mark.parametrize("flavor", ["geometric", "boxmg"])
def test_smoothed_restriction_table_matches_per_vertex_composition(flavor):
    nc = 9
    p = boxmg_level(nc, partial=True)[0]
    if flavor == "geometric":
        p = geometric_p_planes(nc)
    assert np.array_equal(smoothed_restriction_table(p, 0.6),
                          smoothed_table_by_definition(p_table(p), 0.6))


def dense_p_planes(p: np.ndarray, coarse, fine) -> np.ndarray:
    """A dense prolongation matrix (fine x coarse vertices) as offset
    planes; its weights at offsets +-3 must vanish."""
    nc = coarse.n
    planes = np.zeros((5, 5, nc + 1, nc + 1))
    for ci in range(nc + 1):
        for cj in range(nc + 1):
            for oi in range(-3, 4):
                for oj in range(-3, 4):
                    fi, fj = 3 * ci + oi, 3 * cj + oj
                    if 0 <= fi <= fine.n and 0 <= fj <= fine.n:
                        w = p[fine.idx(fi, fj), coarse.idx(ci, cj)]
                        if max(abs(oi), abs(oj)) == 3:
                            assert w == 0.0
                        else:
                            planes[oi + 2, oj + 2, ci, cj] = w
    return planes


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("field", [skew_checkerboard(3), needle_inclusion(3)],
                         ids=["skew-k3", "needle-k3"])
def test_boxmg_prolongation_matches_dense_oracle(field, l):
    """Both edge directions and the interior solve match the loop-based
    oracle on fields that vary along both axes."""
    coarse, fine = DenseLevel(l, field), DenseLevel(l + 1, field)
    want = dense_p_planes(dense_boxmg_p(coarse, fine, fine.a_raw), coarse, fine)
    got = boxmg_prolongation(TableOperator(assemble_stencil_table(epsilon_cells(field, l + 1))),
                             np.ones((3**l, 3**l), dtype=bool))
    assert np.abs(got - want).max() < 1e-12


def test_probed_ritz_galerkin_matches_dense_oracle():
    h = DenseHierarchy(1, 3, half_domain_jump(3), flavor="boxmg")
    for l in (1, 2):
        coarse, fine = h.levels[l], h.levels[l + 1]
        nc = coarse.n
        # the dense operators in the stencil-table layouts; fine.a has its
        # rows without an equation zeroed already
        p_planes = dense_p_planes(h.p[l], coarse, fine)
        a_tbl = np.zeros((fine.n + 1, fine.n + 1, 3, 3))
        for i in range(fine.n + 1):
            for j in range(fine.n + 1):
                for a in range(3):
                    for b in range(3):
                        ti, tj = i + a - 1, j + b - 1
                        if 0 <= ti <= fine.n and 0 <= tj <= fine.n:
                            a_tbl[i, j, a, b] = fine.a[fine.idx(i, j), fine.idx(ti, tj)]
        rap = ritz_galerkin_coarse(TableOperator(a_tbl), p_planes,
                                   np.ones((fine.n + 1, fine.n + 1), dtype=bool))
        want = h.p[l].T @ fine.a @ h.p[l]
        scale = np.abs(want).max()
        for i in range(nc + 1):
            for j in range(nc + 1):
                row = np.zeros(coarse.nv)
                for a in range(3):
                    for b in range(3):
                        ti, tj = i + a - 1, j + b - 1
                        if 0 <= ti <= nc and 0 <= tj <= nc:
                            row[coarse.idx(ti, tj)] = rap[i, j, a, b]
                        else:
                            assert rap[i, j, a, b] == 0.0
                assert np.abs(row - want[coarse.idx(i, j)]).max() < 1e-13 * scale


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_probes_zero_the_rows_without_an_equation_bit_for_bit(graded):
    """On a graded mesh with hanging and Dirichlet rows, probing the
    unmasked fine table and zeroing the rows without an equation gives the
    coarse table of the fine table zeroed at those rows, as int64 views."""
    eng = ReferenceEngine(graded, SolverConfig(flavor="boxmg"))
    while eng.build_stale_level():
        pass
    for l in range(graded.lmin, eng.ltop):
        fine = eng.masks[l + 1]
        assert (~fine["dof"]).any()
        raw = eng.ops[l + 1].table()
        p = eng.transfers[l].p_planes
        want = ritz_galerkin_coarse(TableOperator(raw * fine["dof"][:, :, None, None]), p,
                                    np.ones_like(fine["dof"]))
        assert bitwise_equal(ritz_galerkin_coarse(TableOperator(raw), p, fine["dof"]), want)
    assert any(eng.masks[l]["hanging"].any() for l in eng.masks)


def test_stencil_tables_are_offset_major_and_read_in_either_layout():
    """Stencil tables are stored [a, b, i, j] and indexed [i, j, a, b]; the
    kernels that read them give bitwise equal results for the same table
    held C-contiguous."""
    rng = np.random.default_rng(37)
    tbl = assemble_stencil_table(epsilon_cells(skew_checkerboard(3), 3))
    assert tbl.shape == (28, 28, 3, 3)
    assert tbl.transpose(2, 3, 0, 1).flags.c_contiguous
    dense = np.ascontiguousarray(tbl)
    x = rng.standard_normal((28, 28))
    assert bitwise_equal(TableOperator(tbl).apply(x), TableOperator(dense).apply(x))
    assert bitwise_equal(TableOperator(tbl).diag(), dense[:, :, 1, 1])
    refined = rng.random((9, 9)) < 0.6
    p = boxmg_prolongation(TableOperator(tbl), refined)
    assert p.flags.c_contiguous
    assert bitwise_equal(p, boxmg_prolongation(TableOperator(dense), refined))
    dof = np.ones((28, 28), dtype=bool)
    rap = ritz_galerkin_coarse(TableOperator(tbl), p, dof)
    assert rap.transpose(2, 3, 0, 1).flags.c_contiguous
    assert bitwise_equal(rap, ritz_galerkin_coarse(TableOperator(dense), p, dof))
    assert smoothed_restriction_table(p, 0.6).flags.c_contiguous


# -- offset planes of P ------------------------------------------------------


def signed_zero_field(rng, shape):
    """Normal samples with about a fifth of them +0.0 and a fifth -0.0."""
    f = rng.standard_normal(shape)
    pick = rng.random(shape)
    f[pick < 0.2] = 0.0
    f[(pick >= 0.2) & (pick < 0.4)] = -0.0
    return f


def random_p_planes(rng, nc):
    """Offset planes of weights of both signs, +-0.0 among them."""
    return signed_zero_field(rng, (5, 5, nc + 1, nc + 1))


def p_planes_of(source, graded):
    """(name, P's offset planes) pairs of one kind of prolongation."""
    if source == "geometric":
        return [("geometric", np.ascontiguousarray(geometric_p_planes(9)))]
    if source == "boxmg":
        return [("boxmg", boxmg_level(9, partial=False)[0])]
    if source == "random":
        rng = np.random.default_rng(41)
        return [(f"random {nc}", random_p_planes(rng, nc)) for nc in (1, 3, 9)]
    eng = ReferenceEngine(graded, SolverConfig(flavor="boxmg"))
    while eng.build_stale_level():
        pass
    return [(f"graded {l}", tr.p_planes) for l, tr in eng.transfers.items()]


def restrict_by_loop(p, fine):
    """out[v] = sum of p[v, o] * fine[3v + o] over the 7x7 offsets o,
    samples outside the grid read as zero, one term at a time; and mag[v],
    the sum of the terms' magnitudes."""
    nc = p.shape[0] - 1
    nf = 3 * nc
    out = np.zeros((nc + 1, nc + 1))
    mag = np.zeros((nc + 1, nc + 1))
    for vi, vj, a, b in np.ndindex(nc + 1, nc + 1, 7, 7):
        fi, fj = 3 * vi + a - 3, 3 * vj + b - 3
        if 0 <= fi <= nf and 0 <= fj <= nf:
            term = float(p[vi, vj, a, b]) * float(fine[fi, fj])
            out[vi, vj] += term
            mag[vi, vj] += abs(term)
    return out, mag


def prolong_in_block_order(p, coarse):
    """fine[f] = sum of p[v, o] * coarse[v] over 3v + o == f, one term at a
    time onto +0.0, the offsets of block (qa, qb) = (0, 0), (0, 1), (1, 0),
    (1, 1) in turn, q = 0 for offsets -3..-1 and 1 for 0..2."""
    nc = p.shape[0] - 1
    nf = 3 * nc
    fine = np.zeros((nf + 1, nf + 1))
    blocks = (range(-3, 0), range(0, 3))
    for qa, qb in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for vi in range(nc + 1):
            for vj in range(nc + 1):
                for a in blocks[qa]:
                    for b in blocks[qb]:
                        fi, fj = 3 * vi + a, 3 * vj + b
                        if 0 <= fi <= nf and 0 <= fj <= nf:
                            term = float(p[vi, vj, a + 3, b + 3]) * float(coarse[vi, vj])
                            fine[fi, fj] = fine[fi, fj] + term
    return fine


@pytest.mark.parametrize("source", ["geometric", "boxmg", "graded", "random"])
def test_plane_restriction_is_the_loop_sum_and_the_transpose(source, graded):
    """Restriction by P's planes sums the terms of a plain loop to within
    1e-14 of their summed magnitudes, and <P c, f> = <c, R f> holds against
    the plane prolongation to 1e-13 of the summed magnitudes."""
    rng = np.random.default_rng(43)
    for name, planes in p_planes_of(source, graded):
        nc = planes.shape[2] - 1
        fine = signed_zero_field(rng, (3 * nc + 1, 3 * nc + 1))
        got = _restrict_planes(_padded(fine), planes)
        want, mag = restrict_by_loop(p_table(planes), fine)
        assert (np.abs(got - want) <= 1e-14 * mag).all(), name
        assert bitwise_equal(TransferOps(planes, None).restrict(fine), got)
        coarse = rng.standard_normal((nc + 1, nc + 1))
        lhs, rhs = np.vdot(_prolong_planes(coarse, planes), fine), np.vdot(coarse, got)
        assert abs(lhs - rhs) <= 1e-13 * np.vdot(np.abs(coarse), mag), name


@pytest.mark.parametrize("source", ["geometric", "boxmg", "graded", "random"])
def test_plane_prolongation_adds_in_block_order_bit_for_bit(source, graded):
    rng = np.random.default_rng(47)
    for name, planes in p_planes_of(source, graded):
        nc = planes.shape[2] - 1
        p = p_table(planes)
        coarse = signed_zero_field(rng, (nc + 1, nc + 1))
        assert bitwise_equal(_prolong_planes(coarse, planes),
                             prolong_in_block_order(p, coarse)), name


def test_boxmg_transfers_hold_p_once_as_offset_planes(graded):
    """After set-up each boxmg TransferOps holds P as 25 owned planes of
    (nc+1)^2 weights and no other array, no R~ table among them: the planes
    boxmg_prolongation returned from the finer table, bit for bit."""
    eng = ReferenceEngine(graded, SolverConfig(flavor="boxmg"))
    while eng.build_stale_level():
        pass
    assert eng.transfers
    for l, tr in eng.transfers.items():
        nc = 3**l
        planes = tr.p_planes
        assert planes.nbytes == 25 * 8 * (nc + 1) ** 2
        assert planes.base is None and planes.flags.c_contiguous
        held = [v for v in vars(tr).values() if isinstance(v, np.ndarray)]
        assert len(held) == 1 and held[0] is planes
        refined = graded.refined[l] & graded.cells_exist(l)
        want = boxmg_prolongation(TableOperator(eng.ops[l + 1].table()), refined,
                                  eng.masks[l + 1]["hanging"])
        assert want.flags.c_contiguous and bitwise_equal(planes, want)
