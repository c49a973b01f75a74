import numpy as np
import pytest

from treemg.discretization import constant_field, half_domain_jump, needle_inclusion, skew_checkerboard
from treemg.operators import (
    TableOperator,
    assemble_stencil_table,
    boxmg_prolongation,
    ritz_galerkin_coarse,
)
from treemg.oracle import (
    DenseHierarchy,
    DenseLevel,
    dense_cycle,
    eq5_difference,
    exact_solve,
    two_grid_spectral_radius,
)
from treemg.spacetree import VertexKind

POISSON = constant_field(1.0)


def test_level1_poisson_matrix():
    lvl = DenseLevel(1, POISSON)
    mask = lvl.interior
    a_ii = lvl.a_raw[np.ix_(mask, mask)]
    assert a_ii.shape == (4, 4)
    assert np.allclose(np.diag(a_ii), 8.0 / 3.0)
    # neighbours of the 2x2 interior block couple with -1/3 (they are
    # diagonal neighbours of each other except the opposing corners)
    off = a_ii - np.diag(np.diag(a_ii))
    assert set(np.round(np.unique(off), 12)) == {round(-1.0 / 3.0, 12), 0.0}


def test_dense_symmetry():
    for field in (POISSON, half_domain_jump(1)):
        lvl = DenseLevel(2, field)
        mask = lvl.interior
        a_ii = lvl.a_raw[np.ix_(mask, mask)]
        assert np.abs(a_ii - a_ii.T).max() == 0.0


def test_jump_matrix_mixes_contributions():
    lvl = DenseLevel(1, half_domain_jump(1))
    # rows at vertices left and right of the split differ by the eps mix
    left = lvl.a_raw[lvl.idx(1, 1), lvl.idx(1, 1)]
    right = lvl.a_raw[lvl.idx(2, 1), lvl.idx(2, 1)]
    assert left > right
    assert right == pytest.approx((2.0 / 3.0) * 2 * (1.0 + 0.1), rel=1e-12)


@pytest.mark.parametrize("field", [
    POISSON,
    half_domain_jump(1), half_domain_jump(5),
    needle_inclusion(3), skew_checkerboard(5),
])
def test_spd_after_elimination(field):
    lvl = DenseLevel(2, field)
    mask = lvl.interior
    a_ii = lvl.a_raw[np.ix_(mask, mask)]
    np.linalg.cholesky(a_ii)  # raises if not SPD


def test_exact_solve_max_principle():
    lvl = DenseLevel(2, POISSON)
    u = exact_solve(lvl)
    assert u.min() >= -1e-13
    assert u.max() <= 1.0 + 1e-13
    res = (lvl.a @ u)[lvl.interior]
    assert np.abs(res).max() < 1e-12 * max(1.0, np.abs(u).max())


def test_exact_solve_zero_data():
    lvl = DenseLevel(1, POISSON)

    class ZeroBC(DenseLevel):
        pass

    u = exact_solve(lvl, b=np.zeros(lvl.nv))
    # boundary data is nonzero on the heated edge, so only check linearity:
    # doubling the boundary data doubles the solution is covered elsewhere;
    # here solve the homogeneous problem directly
    mask = lvl.interior
    a_ii = lvl.a_raw[np.ix_(mask, mask)]
    x = np.linalg.solve(a_ii, np.zeros(mask.sum()))
    assert np.abs(x).max() == 0.0


def test_exact_solution_is_cycle_fixed_point():
    for flavor in ("geometric", "boxmg"):
        h = DenseHierarchy(1, 2, POISSON, flavor=flavor)
        u_star = exact_solve(h.fine())
        for variant in ("additive", "additive-exp", "bpx", "afacc",
                        "adafac-jac", "adafac-pi", "multiplicative-v10"):
            out = dense_cycle(h, variant, u_star)
            assert np.abs(out - u_star).max() < 1e-13, variant


def test_dense_galerkin_matches_stencil_rap():
    field = half_domain_jump(1)
    h = DenseHierarchy(1, 2, field, flavor="boxmg")
    coarse = h.levels[1]
    a_c = coarse.a
    # stencil-side computation
    from treemg.spacetree import build_regular

    tree = build_regular(2, field=field)
    op = TableOperator(assemble_stencil_table(tree.eps[2]))
    dofmask = tree.dof_mask(2)
    p_planes = boxmg_prolongation(op, np.ones((3, 3), dtype=bool),
                                  tree.vertex_kinds(2) == VertexKind.HANGING)
    rap = ritz_galerkin_coarse(op, p_planes, dofmask)
    n = 3
    for i in range(1, n):
        for j in range(1, n):
            row = np.zeros(coarse.nv)
            for a in range(3):
                for b in range(3):
                    ii, jj = i + a - 1, j + b - 1
                    row[coarse.idx(ii, jj)] += rap[i, j, a, b]
            assert np.abs(row - a_c[coarse.idx(i, j)]).max() < 1e-12


def test_dense_boxmg_matches_stencil_boxmg():
    field = skew_checkerboard(2)
    h = DenseHierarchy(1, 2, field, flavor="boxmg")
    p_dense = h.p[1]
    from treemg.spacetree import build_regular

    tree = build_regular(2, field=field)
    tbl = assemble_stencil_table(tree.eps[2])
    p_planes = boxmg_prolongation(TableOperator(tbl), np.ones((3, 3), dtype=bool),
                                  tree.vertex_kinds(2) == VertexKind.HANGING)
    fine, coarse = h.levels[2], h.levels[1]
    for ci in range(4):
        for cj in range(4):
            col = p_dense[:, coarse.idx(ci, cj)]
            for oi in range(-3, 4):
                for oj in range(-3, 4):
                    fi, fj = 3 * ci + oi, 3 * cj + oj
                    if 0 <= fi <= 9 and 0 <= fj <= 9:
                        # the planes hold offsets -2..2; the weights at +-3 are zero
                        w = (p_planes[oi + 2, oj + 2, ci, cj]
                             if max(abs(oi), abs(oj)) <= 2 else 0.0)
                        assert col[fine.idx(fi, fj)] == pytest.approx(w, abs=1e-12)


def test_eq5_identity():
    h = DenseHierarchy(1, 2, POISSON)
    rng = np.random.default_rng(1)
    u = h.fine().boundary_vector()
    u[h.fine().interior] = rng.standard_normal(int(h.fine().interior.sum()))
    diff = dense_cycle(h, "multiplicative-v10", u) - dense_cycle(h, "additive-exact-coarse", u)
    want = eq5_difference(h, u)
    assert np.abs(diff - want).max() < 1e-13


def test_two_grid_contraction():
    h = DenseHierarchy(1, 2, POISSON)
    rho = two_grid_spectral_radius(h, "multiplicative-v10", iters=200)
    assert rho < 1.0 - 1e-6


def test_bpx_uses_unscaled_coarse_residual():
    h = DenseHierarchy(1, 2, POISSON)
    rng = np.random.default_rng(3)
    u = h.fine().boundary_vector()
    u[h.fine().interior] = rng.standard_normal(int(h.fine().interior.sum()))
    r = -h.fine().a @ u
    coarse_r = h.p[1].T @ r
    # reconstruct the bpx update by hand from the two-level row
    want = u + h.omega * h.fine().inv_diag * r
    want = want + h.p[1] @ (h.omega * coarse_r * h.levels[1].interior)
    got = dense_cycle(h, "bpx", u)
    assert np.abs(got - want).max() < 1e-13


def test_afacc_masking_matches_row():
    h = DenseHierarchy(1, 2, POISSON)
    rng = np.random.default_rng(4)
    u = h.fine().boundary_vector()
    u[h.fine().interior] = rng.standard_normal(int(h.fine().interior.sum()))
    r = -h.fine().a @ u
    inj = h.injection(1)
    masked = r - inj.T @ (inj @ r)
    want = u + h.omega * h.fine().inv_diag * r
    want = want + h.p[1] @ (h.omega * h.levels[1].inv_diag * (h.p[1].T @ masked))
    got = dense_cycle(h, "afacc", u)
    assert np.abs(got - want).max() < 1e-13


def test_afacc_mask_vanishes_off_c_points():
    # a residual supported only away from c-points restricts unchanged
    h = DenseHierarchy(1, 2, POISSON)
    fine = h.fine()
    r = np.zeros(fine.nv)
    r[fine.idx(1, 1)] = 1.0  # not a c-point
    inj = h.injection(1)
    masked = r - inj.T @ (inj @ r)
    assert np.abs(h.p[1].T @ masked - h.p[1].T @ r).max() == 0.0


def test_oracle_capped_at_desk_scale():
    with pytest.raises(ValueError):
        DenseLevel(5, POISSON)


@pytest.mark.parametrize("field", [half_domain_jump(3), needle_inclusion(3)])
def test_boxmg_chain_is_galerkin_on_every_level(field):
    """Each boxmg coarse matrix is the Galerkin product of the finished
    finer one, down the whole chain."""
    h = DenseHierarchy(1, 3, field, flavor="boxmg")
    for l in (1, 2):
        p = h.p[l]
        want = np.where(h.levels[l].interior[:, None], p.T @ h.levels[l + 1].a @ p, 0.0)
        assert np.abs(h.levels[l].a - want).max() < 1e-12, l
