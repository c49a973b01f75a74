"""Inter-grid transfer operators and coarse-grid stencils.

Two flavours exist.  The geometric flavour uses d-linear prolongation with
its transpose as restriction and rediscretized coarse stencils.  One 1D
weight vector (_W, the weights at fine offsets -2..2) defines d-linear
interpolation everywhere: the separable kernel _dlinear1d applies it, up
for P and down for R = P^T weight for weight, and its outer product is the
5x5 geometric_prolongation that the smoothed restriction, the boxmg
hanging-vertex weights and the pipelined engine read.  The
operator-dependent flavour builds prolongation weights per coarse vertex by
collapsing the fine stencils along coarse cell faces (identity on c-points,
lumped 1D solves on face points, exact local solves on interior points),
uses the transpose as restriction and Ritz-Galerkin coarse stencils
A_c = R A P.  One face-point solve serves both edge directions: it runs on
the level and on its transposed views, writing straight into P, and the
interior solves read their boundary weights back from P.

The auxiliary damping solver additionally needs a smoothed restriction
R~ = omega * R A diag(A)^-1, the restriction of a smoothed residual.  It
is built from the unit-coefficient operator on every level, which removes
the material parameter from the damping term on elements with constant
coefficient: A diag(A)^-1 is then the constant 3x3 stencil c = (9 delta -
box)/8.  P reaches fine offsets -2..2 only, so the composition spans
offsets -3..3: the 7x7 footprint of the tripartitioning transfer
operators.  smoothed_restriction_table composes it as stencils from
either flavour's P; the geometric flavour applies that one 7x7 stencil.
BoxMG levels store no R~: TransferOps applies c to the fine field and
restricts the result by P, omega R (c f), which is the table's
contraction up to rounding.

Level operators are ElementOperators, whose apply runs one element loop
for any coefficient field, or TableOperators of explicit stencils (the
boxmg coarse levels).  Both give the stencil rows of chosen vertices,
which is all that boxmg_prolongation reads of the finer level, and
ritz_galerkin_coarse probes with the finer operator's own apply, so no
level builds the table of the level above it.

Array convention: vertex fields of a level with n cells per axis are
(n+1, n+1) arrays indexed [i, j], i along x.  The cycle kernels (the
d-linear transfers, ElementOperator.apply and the geometric TransferOps)
take C-contiguous fields and return new C-contiguous arrays, so that the
elementwise passes that mix their results with level fields walk memory
in order.  Stencil tables are (n+1, n+1, 3, 3) with table[i, j, a, b]
coupling vertex (i, j) to (i+a-1, j+b-1).  They are stored offset-major:
assemble_stencil_table and ritz_galerkin_coarse fill a C-contiguous
(3, 3, n+1, n+1) array of offset planes and return its transpose(2, 3, 0,
1) view, so that the kernels, which work one offset at a time, read
contiguous planes.  P is built, composed and read as one format, the
C-contiguous (5, 5, nc+1, nc+1) array of its offset planes, planes[a+2,
b+2, i, j] the weight between coarse vertex (i, j) and fine vertex (3i+a,
3j+b).  smoothed_restriction_table returns a C-contiguous (nc+1, nc+1,
7, 7) table, table[i, j, a+3, b+3] that weight.  einsum contracts P's
planes in an order set by their strides, so their layout is part of the
results.

The table transfers work on whole levels.  The geometric R~ is contracted
by einsum with a view of the 7x7 windows at stride 3 of the fine field
zero-padded by 3; restriction by P is one einsum of its planes with the
inner 5x5 of those windows.  Prolongation
splits each offset as o+3 = 3q + r (q, r in 0..2): fine vertex 3v+o is
entry r of block v+q of the fine field padded by 3 and viewed as (nc+2, 3,
nc+2, 3), and the planes of each block (qa, qb), q in {0, 1}, are added
with one operation; the Galerkin probes prolong with that same kernel.
"""

from __future__ import annotations

import numpy as np

from .discretization import ELEMENT_MATRIX_UNIT, CORNER_OFFSETS, interior_stencil

__all__ = [
    "geometric_prolongation",
    "prolong_values",
    "restrict_dlinear",
    "ElementOperator",
    "TableOperator",
    "assemble_stencil_table",
    "boxmg_prolongation",
    "ritz_galerkin_coarse",
    "smoothed_restriction_table",
    "TransferOps",
]


# 1D d-linear weights at fine offsets -2..2 (the +-3 weights vanish); the
# one definition of d-linear interpolation and its transpose.
_W = np.array([1, 2, 3, 2, 1]) / 3.0


def geometric_prolongation() -> np.ndarray:
    """Bilinear interpolation weights of one coarse vertex, indexed
    [a + 2, b + 2] for the fine offset (a, b) like P's offset planes."""
    return np.outer(_W, _W)


def _dlinear1d(arr: np.ndarray, axis: int, up: bool) -> np.ndarray:
    """d-linear transfer along one axis: with up, coarse (m+1) -> fine
    (3m+1), out[3c+o] += w_o arr[c]; otherwise its transpose, fine ->
    coarse, out[c] += w_o arr[3c+o].  Targets outside the grid are dropped.
    The result is a new C-contiguous array."""
    m = arr.shape[axis] - 1 if up else (arr.shape[axis] - 1) // 3
    shape = list(arr.shape)
    shape[axis] = 3 * m + 1 if up else m + 1
    out = np.zeros(shape)
    lead = (slice(None),) * axis
    for off, w in zip(range(-2, 3), _W):
        lo = (max(0, -off) + 2) // 3
        hi = m - (max(0, off) + 2) // 3
        coarse = lead + (slice(lo, hi + 1),)
        fine = lead + (slice(3 * lo + off, 3 * hi + off + 1, 3),)
        if up:
            out[fine] += w * arr[coarse]
        else:
            out[coarse] += w * arr[fine]
    return out


def prolong_values(coarse: np.ndarray) -> np.ndarray:
    """d-linear interpolation of a coarse vertex field to the next level."""
    return _dlinear1d(_dlinear1d(coarse, 0, True), 1, True)


def restrict_dlinear(fine: np.ndarray) -> np.ndarray:
    """Accumulating transpose of d-linear prolongation."""
    return _dlinear1d(_dlinear1d(fine, 0, False), 1, False)


# -- level operators --------------------------------------------------------


class ElementOperator:
    """Vertex-stencil operator assembled on the fly from per-cell material
    samples.  eps holds one (possibly zero) coefficient per cell of the
    level; zero marks cells that do not exist.

    The application works on the raveled (n+1)^2 vertex field.  eps is
    kept zero-padded by one row and one column, so that cell (i, j) has the
    flat index i*(n+1) + j of its lower-left vertex and each corner of
    every cell is one shifted contiguous slice; the padding cells add zero
    terms only."""

    def __init__(self, eps: np.ndarray):
        n = eps.shape[0]
        self.n = n
        self._eps_pad = np.zeros((n + 1, n + 1))
        self._eps_pad[:n, :n] = eps
        self.eps = self._eps_pad[:n, :n]

    def apply(self, x: np.ndarray) -> np.ndarray:
        n1 = self.n + 1
        m = n1 * n1 - n1 - 1  # cells up to the last real one, (n-1, n-1)
        shift = [a0 * n1 + a1 for a0, a1 in CORNER_OFFSETS]
        xf = x.reshape(-1)
        eps = self._eps_pad.reshape(-1)[:m]
        out = np.zeros(n1 * n1)
        acc = np.empty(m)
        tmp = np.empty(m)
        for a, sa in enumerate(shift):
            np.multiply(xf[shift[0] : shift[0] + m], ELEMENT_MATRIX_UNIT[a, 0], out=acc)
            for b in range(1, 4):
                np.multiply(xf[shift[b] : shift[b] + m], ELEMENT_MATRIX_UNIT[a, b], out=tmp)
                acc += tmp
            acc *= eps
            out[sa : sa + m] += acc
        return out.reshape(n1, n1)

    def diag(self) -> np.ndarray:
        n = self.n
        out = np.zeros((n + 1, n + 1))
        for a, (a0, a1) in enumerate(CORNER_OFFSETS):
            out[a0 : a0 + n, a1 : a1 + n] += ELEMENT_MATRIX_UNIT[a, a] * self.eps
        return out

    def table(self) -> np.ndarray:
        return assemble_stencil_table(self.eps)

    def rows(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Stencil rows of the vertices (i, j), index arrays that
        broadcast: assemble_stencil_table(eps)[i, j] bit for bit, summed
        onto +0.0 in that function's order.  Cells outside the level read
        the zero padding (index -1 wraps onto it), and their +-0.0 terms
        leave every sum as it is."""
        out = np.zeros((3, 3) + np.broadcast(i, j).shape)
        for a, (a0, a1) in enumerate(CORNER_OFFSETS):
            eps = self._eps_pad[i - a0, j - a1]
            for b, (b0, b1) in enumerate(CORNER_OFFSETS):
                out[b0 - a0 + 1, b1 - a1 + 1] += ELEMENT_MATRIX_UNIT[a, b] * eps
        return np.moveaxis(out, (0, 1), (-2, -1))


class TableOperator:
    """Operator stored as an explicit per-vertex 3x3 stencil table.

    table is indexed [i, j, a, b]; apply and diag read its offset planes
    table.transpose(2, 3, 0, 1), which are contiguous for the offset-major
    tables of assemble_stencil_table and ritz_galerkin_coarse."""

    def __init__(self, table: np.ndarray):
        self.tbl = table
        self.n = table.shape[0] - 1
        self._planes = table.transpose(2, 3, 0, 1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        n = self.n
        out = np.zeros_like(x)
        for a in range(3):
            for b in range(3):
                src_i = slice(max(0, a - 1), n + 1 + min(0, a - 1))
                src_j = slice(max(0, b - 1), n + 1 + min(0, b - 1))
                dst_i = slice(max(0, 1 - a), n + 1 + min(0, 1 - a))
                dst_j = slice(max(0, 1 - b), n + 1 + min(0, 1 - b))
                out[dst_i, dst_j] += self._planes[a, b, dst_i, dst_j] * x[src_i, src_j]
        return out

    def diag(self) -> np.ndarray:
        return self._planes[1, 1]

    def table(self) -> np.ndarray:
        return self.tbl

    def rows(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Stencil rows of the vertices (i, j), index arrays that
        broadcast."""
        return self.tbl[i, j]


def assemble_stencil_table(eps: np.ndarray) -> np.ndarray:
    """Per-vertex stencils summed from adjacent element matrices, as an
    offset-major table.

    Vertices next to missing cells (boundary, hanging) receive the
    truncated rows of their remaining elements.
    """
    n = eps.shape[0]
    planes = np.zeros((3, 3, n + 1, n + 1))
    for a, (a0, a1) in enumerate(CORNER_OFFSETS):
        for b, (b0, b1) in enumerate(CORNER_OFFSETS):
            planes[b0 - a0 + 1, b1 - a1 + 1, a0 : a0 + n, a1 : a1 + n] += (
                ELEMENT_MATRIX_UNIT[a, b] * eps
            )
    return planes.transpose(2, 3, 0, 1)


# -- operator-dependent prolongation ----------------------------------------

# Refined cells per chunk of boxmg_prolongation's interior solves: about
# 1 MB of gathers, rows and solves, whatever the size of the level.
_INTERIOR_BLOCK = 1024


def _padded(fine: np.ndarray) -> np.ndarray:
    """A copy of the fine field zero-padded by 3 on every side."""
    pad = np.zeros((fine.shape[0] + 6, fine.shape[1] + 6), dtype=fine.dtype)
    pad[3:-3, 3:-3] = fine
    return pad


def _windows(pad: np.ndarray) -> np.ndarray:
    """View of the 7x7 windows at stride 3 of a fine field zero-padded by 3
    (_padded), (nc+1, nc+1, 7, 7): entry [v, o] is fine[3v + o - 3], zero
    outside the grid."""
    s0, s1 = pad.strides
    n1 = (pad.shape[0] - 7) // 3 + 1, (pad.shape[1] - 7) // 3 + 1
    return np.ndarray(n1 + (7, 7), pad.dtype, pad, strides=(3 * s0, 3 * s1, s0, s1))


def _solve_gamma(a_m1, a_01, a_p1, a_m2, a_02, a_p2, active):
    """Lumped 1D interpolation solves for the two face points of an edge.

    Point 1 sits next to the 'low' c-point, point 2 next to the 'high' one.
    Returns (w_low_1, w_low_2, w_high_1, w_high_2).
    """
    det = a_01 * a_02 - a_p1 * a_m2
    scale = np.abs(a_01 * a_02) + np.abs(a_p1 * a_m2)
    bad = active & (np.abs(det) <= 1e-14 * np.maximum(scale, 1e-300))
    if bad.any():
        raise ArithmeticError("degenerate collapsed stencil in face-point solve")
    det = np.where(active, det, 1.0)
    wl1 = np.where(active, (-a_m1) * a_02 / det, 0.0)
    wl2 = np.where(active, a_m2 * a_m1 / det, 0.0)
    wh1 = np.where(active, a_p1 * a_p2 / det, 0.0)
    wh2 = np.where(active, a_01 * (-a_p2) / det, 0.0)
    return wl1, wl2, wh1, wh2


def _face_points(rows, refined: np.ndarray, p: np.ndarray) -> None:
    """Face-point weights of the edges along axis 0 into the planes p.

    Edge (I, J) runs from c-point (I, J) to (I+1, J) through fine points
    (3I+1, 3J) and (3I+2, 3J); an edge of a refined cell is solved on the
    stencil lumped along its normal, axis 1.  rows(i, j) gives the fine
    stencil rows of vertices (i, j).  The other edges are the axis-0 edges
    of the transposed views (rows with its indices and offsets swapped,
    refined.T, p.transpose(1, 0, 3, 2)).
    """
    active = np.zeros((refined.shape[0], refined.shape[1] + 1), dtype=bool)
    active[:, 1:] |= refined
    active[:, :-1] |= refined
    i = 3 * np.arange(refined.shape[0])[:, None]
    j = 3 * np.arange(refined.shape[1] + 1)
    # the stencils of the two face points, lumped over offset b in the
    # order b = 0, 1, 2
    lumped = [t[..., a, 0] + t[..., a, 1] + t[..., a, 2]
              for t in (rows(i + 1, j), rows(i + 2, j)) for a in range(3)]
    p[3, 2, :-1], p[4, 2, :-1], p[0, 2, 1:], p[1, 2, 1:] = _solve_gamma(*lumped, active)


def boxmg_prolongation(fine_op, refined: np.ndarray,
                       hanging: np.ndarray | None = None) -> np.ndarray:
    """Operator-dependent prolongation weights per coarse vertex.

    fine_op is the fine level's operator (ElementOperator or
    TableOperator) with the raw assembled stencils, whose rows the solves
    read as they need them; refined is the boolean coarse-cell mask below
    which fine cells exist, hanging the boolean mask of the fine level's
    hanging vertices (None: there are none).  Weights are the identity on
    c-points; on face points they come from the stencil lumped along the
    face normal, by one solve (_face_points) on the level and again on its
    transposed views; interior points solve the local 4x4 system A P e = 0
    exactly, with the boundary weights of the patch read from P itself.
    Weights targeting hanging fine vertices are replaced by the d-linear
    ones, matching the interpolation used for hanging-vertex values.  The
    interior solves run over chunks of _INTERIOR_BLOCK cells, so that their
    scratch memory does not grow with the level.

    Returns P's offset planes, the C-contiguous (5, 5, nc+1, nc+1) array
    of its weights at fine offsets -2..2, written there from the start.
    """
    nc = refined.shape[0]
    n1 = nc + 1
    p = np.zeros((5, 5, n1, n1))
    p[2, 2] = 1.0  # c-points: identity
    _face_points(fine_op.rows, refined, p)
    _face_points(lambda i, j: fine_op.rows(j, i).swapaxes(-2, -1), refined.T,
                 p.transpose(1, 0, 3, 2))

    # Interior points, vectorized over chunks of refined cells: the four
    # interior points of a refined coarse cell couple only to each other and
    # to the cell's boundary points.  Patch-local coordinates (tp, tq) run
    # over 0..3; corner (cp, cq) of cell (ci, cj) is coarse vertex
    # (ci + cp//3, cj + cq//3), whose weight at patch point (tp, tq) is its
    # P entry at offset (tp - cp, tq - cq).  a_ff and rhs keep one row per
    # matrix entry, [point, point or corner, cell]; P is read and written
    # through flat indices.  A cell reads only c-point and face-point
    # weights, so its solve does not depend on the chunk it falls in.
    ci, cj = np.nonzero(refined)
    f_off = ((1, 1), (2, 1), (1, 2), (2, 2))
    corners = ((0, 0), (3, 0), (0, 3), (3, 3))
    rim = [(tp, tq) for tp in range(4) for tq in range(4) if (tp, tq) not in f_off]

    def slots(points):
        # [point, corner]: flat offset in p of each corner's weight at the
        # patch points, from the cell's vertex (ci, cj); and whether P
        # reaches the point, +0.0 weights where it does not (offsets +-3)
        off = np.array([[(tp - cp, tq - cq) for cp, cq in corners] for tp, tq in points])
        a, b = np.clip(off, -2, 2).transpose(2, 0, 1) + 2
        corner = np.array([(cp // 3) * n1 + cq // 3 for cp, cq in corners])
        return (a * 5 + b) * n1 * n1 + corner, (np.abs(off) <= 2).all(axis=2)

    pf = p.reshape(-1)
    (rim_slots, reach), (f_slots, _) = slots(rim), slots(f_off)
    rim_slots, reach = rim_slots[:, :, None], reach[:, :, None]
    for k in range(0, ci.size, _INTERIOR_BLOCK):
        bi, bj = ci[k : k + _INTERIOR_BLOCK], cj[k : k + _INTERIOR_BLOCK]
        cell = bi * n1 + bj
        known = np.where(reach, pf[rim_slots + cell], 0.0)  # [rim point, corner, cell]
        a_ff = np.zeros((4, 4, bi.size))
        rhs = np.zeros((4, 4, bi.size))  # one row per corner
        for r, (fp, fq) in enumerate(f_off):
            stn = fine_op.rows(3 * bi + fp, 3 * bj + fq)  # [cell, offset a, offset b]
            for da, db in np.ndindex(3, 3):
                tp, tq = fp + da - 1, fq + db - 1
                if (tp, tq) in f_off:
                    a_ff[r, f_off.index((tp, tq))] += stn[:, da, db]
                else:
                    rhs[r] -= stn[:, da, db] * known[rim.index((tp, tq))]
        # [cell, point, corner]
        sol = np.linalg.solve(a_ff.transpose(2, 0, 1), rhs.transpose(2, 0, 1))
        pf[cell[:, None, None] + f_slots] = sol

    # Hanging fine targets interpolate d-linearly instead.
    if hanging is not None and hanging.any():
        targets = _windows(_padded(hanging))[:, :, 1:6, 1:6].transpose(2, 3, 0, 1)
        np.copyto(p, geometric_prolongation()[:, :, None, None], where=targets)

    # Drop weights pointing outside the fine grid: below offset 0 from the
    # first coarse row or column, above it from the last.
    p[:2, :, 0] = 0.0
    p[3:, :, -1] = 0.0
    p[:, :2, :, 0] = 0.0
    p[:, 3:, :, -1] = 0.0
    return p


# -- table-driven transfers -------------------------------------------------


def _restrict_planes(pad: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """R = P^T from the offset planes, applied to a fine field zero-padded
    by 3 (_padded): out[v] = sum over the offsets o of P[v, o] * fine[3v +
    o], fine samples outside the grid read as zero, as one einsum over the
    5x5 windows of fine that P reaches."""
    return np.einsum("abij,ijab->ij", planes, _windows(pad)[:, :, 1:6, 1:6])


# The fine-block entries r = o+3 mod 3 and the planes o+2 of the offsets o
# of block q = 0 (offsets -2, -1) and q = 1 (0..2).
_BLOCKS = ((slice(1, 3), slice(0, 2)), (slice(0, 3), slice(2, 5)))


def _prolong_planes(coarse: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """fine[f] = sum of P[v, o] * coarse[v] over 3v + o == f; targets
    outside the grid are dropped.  A fine vertex takes at most one term
    from each block (qa, qb), and the terms are added onto +0.0 in the
    block order (0, 0), (0, 1), (1, 0), (1, 1)."""
    nc = coarse.shape[0] - 1
    fine = np.zeros((nc + 2, 3, nc + 2, 3))
    for qa, (ra, pa) in enumerate(_BLOCKS):
        for qb, (rb, pb) in enumerate(_BLOCKS):
            dst = fine[qa : qa + nc + 1, ra, qb : qb + nc + 1, rb].transpose(1, 3, 0, 2)
            np.add(dst, planes[pa, pb] * coarse, out=dst)
    fine = fine.reshape(3 * nc + 6, 3 * nc + 6)
    return fine[3 : 3 * nc + 4, 3 : 3 * nc + 4]


def ritz_galerkin_coarse(fine_op, p_planes: np.ndarray, dof: np.ndarray) -> np.ndarray:
    """Coarse stencil table A_c = R A P from the fine level's operator
    fine_op (ElementOperator or TableOperator) and the offset planes
    p_planes of P (boxmg_prolongation), as an offset-major table.

    dof is the fine level's boolean mask of the vertices that carry an
    equation; restriction only gathers residuals from those, so the other
    rows of each A P e_c are set to +0.0.  For a TableOperator that equals
    the product with its table zeroed at those rows bit for bit: such a
    row would sum only +-0 products onto +0.0.

    A_c is probed with nine coloured coarse vectors e_c, 1 at the vertices
    v with v mod 3 == c, which P, fine_op and R = P^T carry by the kernels
    of the cycles (_prolong_planes, fine_op.apply, _restrict_planes).  P
    reaches fine offsets -2..2, so R A P couples vertices at most one apart
    and no two vertices of one colour share a row: entry dw of vertex w is
    (R A P e_c)[w] for c = (w + dw) mod 3.  Entries towards vertices
    outside the grid come out zero, as no vertex of their colour lies
    within reach.
    """
    nc = p_planes.shape[2] - 1
    no_equation = ~dof
    probed = np.empty((3, 3, nc + 1, nc + 1))
    for ci in range(3):
        for cj in range(3):
            e = np.zeros((nc + 1, nc + 1))
            e[ci::3, cj::3] = 1.0
            ape = fine_op.apply(_prolong_planes(e, p_planes))
            ape[no_equation] = 0.0
            probed[ci, cj] = _restrict_planes(_padded(ape), p_planes)
    v = np.arange(nc + 1)
    planes = np.empty((3, 3, nc + 1, nc + 1))
    for a in range(3):
        for b in range(3):
            colour_i = ((v + a - 1) % 3)[:, None]
            colour_j = ((v + b - 1) % 3)[None, :]
            planes[a, b] = probed[colour_i, colour_j, v[:, None], v[None, :]]
    return planes.transpose(2, 3, 0, 1)


# -- smoothed auxiliary restriction -----------------------------------------


def smoothed_restriction_table(p_planes: np.ndarray, omega: float) -> np.ndarray:
    """Smoothed restriction weights omega * R A diag(A)^-1.

    Composes the restriction weights of P, its offset planes (or the
    (5, 5) weights of one vertex), with c = A diag(A)^-1 of the
    unit-coefficient operator.  Returns the weights at offsets -3..3, all
    that the composition reaches, as a C-contiguous (nc+1, nc+1, 7, 7)
    table (or one (7, 7) stencil).

    Entry t sums c[s] * p[t + 1 - s] over s descending (sources in
    lexicographic order), one shifted add of the planes per s.
    """
    c = interior_stencil(1.0) * (3.0 / 8.0)
    out = np.zeros((7, 7) + p_planes.shape[2:])
    for si in (2, 1, 0):
        for sj in (2, 1, 0):
            out[si : si + 5, sj : sj + 5] += p_planes * c[si, sj]
    out *= omega
    return np.ascontiguousarray(np.moveaxis(out, (0, 1), (-2, -1)))


def _smoothed_padded(fine: np.ndarray) -> np.ndarray:
    """8 c fine zero-padded by 3 (as _padded), c = A diag(A)^-1 of the
    unit-coefficient operator: the 3x3 stencil (9 delta - box)/8, box all
    ones, samples outside the grid read as zero.  The box sum runs along
    axis 0 into one scratch field and is subtracted along axis 1 in place,
    so that the padded result is the only other fresh field."""
    pad = np.zeros((fine.shape[0] + 6, fine.shape[1] + 6))
    out = pad[3:-3, 3:-3]
    box = fine.copy()
    box[1:] += fine[:-1]
    box[:-1] += fine[1:]
    np.multiply(fine, 9.0, out=out)
    out -= box
    out[:, 1:] -= box[:, :-1]
    out[:, :-1] -= box[:, 1:]
    return pad


# -- transfer bundle ---------------------------------------------------------


class TransferOps:
    """Transfer operators between one coarse level and the next finer one.

    With p_planes None, prolongation and restriction are the separable
    d-linear kernels; otherwise P's offset planes from boxmg_prolongation,
    which prolongation scatters from and restriction contracts with the
    windows of the fine field.  Restriction is always the transpose of
    prolongation and accumulates (it never averages).

    The smoothed restriction omega R~ = omega R c, c = A diag(A)^-1 of the
    unit-coefficient operator, takes one of two forms.  With d-linear
    transfers rtilde holds it as one (7, 7) stencil from
    smoothed_restriction_table, which restrict_smoothed contracts with the
    7x7 windows of the fine field by einsum.  With P's planes only omega
    is stored: restrict_smoothed applies 8c to the fine field, restricts
    the result by P and scales it by omega/8, which equals the contraction
    with smoothed_restriction_table(p_planes, omega) up to rounding, as P
    has no weight outside the fine grid.  Both are None when no damping
    equation is solved.
    """

    def __init__(self, p_planes: np.ndarray | None, rtilde: np.ndarray | None = None,
                 omega: float | None = None):
        self.p_planes = p_planes
        self.rtilde = rtilde
        self.omega = omega

    def prolong(self, coarse: np.ndarray) -> np.ndarray:
        if self.p_planes is None:
            return prolong_values(coarse)
        return _prolong_planes(coarse, self.p_planes)

    def restrict(self, fine: np.ndarray) -> np.ndarray:
        if self.p_planes is None:
            return restrict_dlinear(fine)
        return _restrict_planes(_padded(fine), self.p_planes)

    def restrict_smoothed(self, fine: np.ndarray) -> np.ndarray:
        if self.p_planes is None:
            return np.einsum("...ab,...ab->...", _windows(_padded(fine)), self.rtilde)
        out = _restrict_planes(_smoothed_padded(fine), self.p_planes)
        out *= self.omega / 8.0
        return out
