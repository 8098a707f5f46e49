"""Randomized robustness sweep on non-block-aligned modules.

Block-split instances are conjugated by random unimodular integer
matrices, producing dense Frobenius matrices with mixed-sign entries.
The full pipeline (slope projectors, signed lattices, stable-lattice
refinements, trace duals, tangent dimensions) is then cross-checked
against the closed-form dimension data, which only depends on the slopes
and is conjugation-invariant.
"""

import random

from dieudonne.matrix import ring
from dieudonne.witt import make_context
from dieudonne.isocrystal import FIsocrystal, end_decompose, slope_split
from dieudonne.core import TangentSpace, codim_of_dieudonne, nu_image
from dieudonne.signs import SlopePairSet, dual_lattice, sign_modules
from dieudonne.strata import traverso_dimension

from instances import conjugated_instance


def test_dense_conjugated_pipeline():
    rng = random.Random(424242)
    for _ in range(8):
        X = conjugated_instance(rng)
        S = slope_split(X)
        E = end_decompose(S)
        T = TangentSpace(X)
        lat, closed = traverso_dimension(E, T)
        assert lat == closed
        slopes = S.slope_list
        if len(slopes) == 1:
            continue
        mods = sign_modules(E, SlopePairSet.full(slopes))
        assert E.c_minus() == closed
        O = mods.O_minus
        assert nu_image(O, T)[0] == codim_of_dieudonne(O, E.carrier("minus"))
        dd = dual_lattice(mods.O_plus_minus, mods.V_minus)
        assert dd.equals(mods.O_minus)


def test_sigma_twisted_conjugation_invariance():
    # change of basis by a unimodular matrix with residue-generator
    # entries: phi' = U A sigma(U)^{-1}; slopes and dimension data are
    # invariant, and the sigma-twist exercises every semilinear path
    from dieudonne.lattices import SemilinearMap, invert_matrix_exact
    ctx = make_context(2, 2, 48)
    g = ctx.generator
    p = ctx.p
    a_rows = [[ctx.one, ctx.zero, ctx.zero],
              [ctx.zero, ctx.zero, ctx.scalar(p)],
              [ctx.zero, ctx.one, ctx.zero]]  # slopes {0, 1/2, 1/2}
    u_rows = [[ctx.one, g, ctx.zero],
              [ctx.zero, ctx.one, g + ctx.one],
              [ctx.zero, ctx.zero, ctx.one]]
    uinv, vdet = invert_matrix_exact(ctx, u_rows)
    uinv = ring(ctx).wrap_mat(uinv)
    assert vdet == 0
    su_inv = [[x.frobenius(1) for x in row] for row in uinv]
    prod = [[sum((u_rows[i][k] * a_rows[k][j] for k in range(3)), ctx.zero)
             for j in range(3)] for i in range(3)]
    twisted = [[sum((prod[i][k] * su_inv[k][j] for k in range(3)), ctx.zero)
                for j in range(3)] for i in range(3)]
    X0 = FIsocrystal(ctx, SemilinearMap(ctx, a_rows, twist=1))
    X1 = FIsocrystal(ctx, SemilinearMap(ctx, twisted, twist=1))
    from dieudonne.isocrystal import newton_slopes
    assert newton_slopes(X0) == newton_slopes(X1)
    S0, S1 = slope_split(X0), slope_split(X1)
    E0, E1 = end_decompose(S0), end_decompose(S1)
    t0 = traverso_dimension(E0, TangentSpace(X0))
    t1 = traverso_dimension(E1, TangentSpace(X1))
    assert t0 == t1
    assert E0.V_minus.rank == E1.V_minus.rank


def test_conjugated_per_pair_codims():
    # per-pair lattice codimensions match the closed form on dense inputs
    from dieudonne.signs import quasi_factor_codims
    rng = random.Random(77007)
    done = 0
    while done < 3:
        X = conjugated_instance(rng)
        S = slope_split(X)
        if len(S.slopes) < 2:
            continue
        E = end_decompose(S)
        quasi_factor_codims(E)
        done += 1
