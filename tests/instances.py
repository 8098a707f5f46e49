"""Shared test instances.

The rank-6 two-slope instance: cyclic permutation s = (1 2 3) acting on
both blocks, Frobenius exponents a = (1,0,0) on the first block and
b = (1,1,0) on the second; slopes 1/3 and 2/3.
"""

from dieudonne.isocrystal import FIsocrystal

PERM3 = [1, 2, 0]          # 0-based cyclic shift
A_EXP = [1, 0, 0]
B_EXP = [1, 1, 0]
LAMBDA_SET = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0)]  # 0-based


def ordinary_rank2(ctx):
    return FIsocrystal.from_int_matrix(ctx, [[1, 0], [0, ctx.p]])


def supersingular_rank2(ctx):
    return FIsocrystal.from_int_matrix(ctx, [[0, ctx.p], [1, 0]])


def rank6_two_slope(ctx):
    p = ctx.p
    rows = [[0] * 6 for _ in range(6)]
    for j in range(3):
        rows[PERM3[j]][j] = p ** A_EXP[j]
        rows[3 + PERM3[j]][3 + j] = p ** B_EXP[j]
    return FIsocrystal.from_int_matrix(ctx, rows)


def rank6_f1_indices():
    """Columns spanning the Hodge lift: exponent-one basis vectors."""
    out = [i for i in range(3) if A_EXP[i] == 1]
    out += [3 + j for j in range(3) if B_EXP[j] == 1]
    return out


def three_slope_rank4(ctx):
    """Slopes {0, 1/2, 1} with multiplicities (1, 2, 1)."""
    p = ctx.p
    rows = [[0] * 4 for _ in range(4)]
    rows[0][0] = 1
    rows[2][1] = 1
    rows[1][2] = p
    rows[3][3] = p
    return FIsocrystal.from_int_matrix(ctx, rows)


def four_slope_rank8(ctx):
    """Slopes {0, 1/3, 2/3, 1} with multiplicities (1, 3, 3, 1)."""
    p = ctx.p
    rows = [[0] * 8 for _ in range(8)]
    rows[0][0] = 1
    for j in range(3):  # slope 1/3 block on coordinates 1..3
        rows[1 + PERM3[j]][1 + j] = p ** A_EXP[j]
    bexp = [1, 1, 0]    # slope 2/3 block on coordinates 4..6
    for j in range(3):
        rows[4 + PERM3[j]][4 + j] = p ** bexp[j]
    rows[7][7] = p
    return FIsocrystal.from_int_matrix(ctx, rows)


def non_split_rank6(ctx):
    """A Dieudonne module at p = 2 that does not split into its slope
    parts: U diag(1, 1, 1, 1, 2, 2) V for U, V invertible over Z_2, with
    slopes {0, 1/3 (x3), 1/2 (x2)}.  At precision 32 its signed lattices
    carry loss 1 or 2, so a slice check compares lattices of different
    losses."""
    return FIsocrystal.from_int_matrix(ctx, [
        [-12, -13, -7, -17, -6, -18], [28, 12, 21, 19, 4, 10],
        [0, -9, 10, -2, -5, -4], [21, 7, 0, -14, -4, 15],
        [-19, 0, -3, -9, -19, -23], [2, 4, 7, 13, 17, 6]])


def symplectic_ordinary_c2(ctx):
    """c = d = 2 ordinary with the standard alternating form pairing
    coordinates (0,2) and (1,3)."""
    p = ctx.p
    return FIsocrystal.from_int_matrix(
        ctx, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, p, 0], [0, 0, 0, p]])


def symplectic_gram_c2(ctx):
    g = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    return [[ctx.scalar(x) for x in row] for row in g]


def elliptic_ordinary(ctx):
    return FIsocrystal.from_int_matrix(ctx, [[1, 0], [0, ctx.p]])


def elliptic_gram(ctx):
    return [[ctx.zero, ctx.one], [-ctx.one, ctx.zero]]


def hom_block_vector(ctx, r, i, j):
    """Flattened elementary endomorphism sending basis vector j to i."""
    vec = [ctx.zero] * (r * r)
    vec[i * r + j] = ctx.one
    return vec
