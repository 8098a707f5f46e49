"""Shared test instances.

The rank-6 two-slope instance: cyclic permutation s = (1 2 3) acting on
both blocks, Frobenius exponents a = (1,0,0) on the first block and
b = (1,1,0) on the second; slopes 1/3 and 2/3.

At the end: the sigma-twisted n = 2 instance, and the random builders,
which draw modules from a seeded ``random.Random``:
``conjugated_instance`` conjugates a block-split module by a random
unimodular integer matrix (a dense Frobenius matrix that still splits
integrally), ``random_split_instance`` keeps the block form, and
``non_split_recipe`` draws U diag(1, ..., 1, p, ..., p) V, which now and
then does not split (``non_split_draw``).  ``rank8_conj`` is the corpus
entry ``four_slope_rank8`` written in a dense basis.  ``pair_subsets``
lists every subset of a slope-pair set, and ``witt_mat_mul`` multiplies
matrices of ``WittContext`` coefficient tuples by the context's raw ops.
"""

import json
import random
from fractions import Fraction
from importlib import resources

import sympy

from dieudonne.isocrystal import FIsocrystal
from dieudonne.lattices import SemilinearMap, invert_matrix_exact
from dieudonne.matrix import ring
from dieudonne.signs import SlopePairSet
from dieudonne.witt import make_context

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
    return ring(ctx).raw_mat(g)


def elliptic_ordinary(ctx):
    return FIsocrystal.from_int_matrix(ctx, [[1, 0], [0, ctx.p]])


def elliptic_gram(ctx):
    return ring(ctx).raw_mat([[0, 1], [-1, 0]])


def hom_block_vector(r, i, j):
    """Flattened elementary endomorphism sending basis vector j to i, with
    integer entries."""
    vec = [0] * (r * r)
    vec[i * r + j] = 1
    return vec


def pair_subsets(Y):
    """Every subset of the slope-pair set Y, 2^m of them for m pairs."""
    m = len(Y.pairs)
    return [SlopePairSet([Y.pairs[i] for i in range(m) if mask >> i & 1],
                         Y.slopes) for mask in range(1 << m)]


def witt_mat_mul(ctx, a, b):
    """The product of two matrices of ``WittContext`` coefficient tuples,
    by the context's raw ops."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = ctx.scalar(0)
            for x, brow in zip(row, b):
                acc = ctx.add(acc, ctx.mul(x, brow[j]))
            out_row.append(acc)
        out.append(out_row)
    return out


def sigma_twisted_instance():
    """phi' = U A sigma(U)^{-1} over F_4, slopes {0, 1/2, 1/2}: the
    instance of test_sigma_twisted_conjugation_invariance."""
    ctx = make_context(2, 2, 48)
    zero, one, g = ctx.scalar(0), ctx.scalar(1), ctx.scalar([0, 1])
    a_rows = [[one, zero, zero],
              [zero, zero, ctx.scalar(ctx.p)],
              [zero, one, zero]]
    u_rows = [[one, g, zero],
              [zero, one, ctx.add(g, one)],
              [zero, zero, one]]
    uinv, vdet = invert_matrix_exact(ctx, u_rows)
    assert vdet == 0
    su_inv = [[ctx.frobenius(x, 1) for x in row] for row in uinv]
    twisted = witt_mat_mul(ctx, witt_mat_mul(ctx, u_rows, a_rows), su_inv)
    return FIsocrystal(ctx, SemilinearMap(ctx, twisted, twist=1))


def conjugated_instance(rng, precision=48):
    """U A U^{-1} for a block-split A and a unimodular U: a dense matrix
    with negative entries, at the given precision."""
    p = rng.choice([2, 3, 5])
    blocks = []
    total = 0
    while total < 4:
        den = rng.choice([1, 2, 3])
        num = rng.randrange(0, den + 1)
        if total + den > 6:
            break
        blocks.append((num, den))
        total += den
    r = total
    rows = [[0] * r for _ in range(r)]
    pos = 0
    for (num, den) in blocks:
        exps = [0] * den
        for k in rng.sample(range(den), num):
            exps[k] = 1
        for j in range(den):
            rows[pos + (j + 1) % den][pos + j] = p ** exps[j]
        pos += den
    u = sympy.eye(r)
    for _ in range(2 * r):
        i, j = rng.randrange(r), rng.randrange(r)
        if i != j:
            u[i, :] = u[i, :] + rng.randrange(-2, 3) * u[j, :]
    a = u * sympy.Matrix(r, r, lambda i, j: rows[i][j]) * u.inv()
    ctx = make_context(p, 1, precision)
    return FIsocrystal.from_int_matrix(
        ctx, [[int(a[i, j]) for j in range(r)] for i in range(r)])


CONJUGATED_DRAWS = 8


def conjugated_draws():
    """The first eight draws of ``test_robustness.test_dense_conjugated_
    pipeline``."""
    rng = random.Random(424242)
    return [conjugated_instance(rng) for _ in range(CONJUGATED_DRAWS)]


def random_split_instance(rng):
    """A block-split module with slopes from {0, 1/3, 1/2, 2/3, 1} and
    total rank at most 10."""
    candidates = [Fraction(0), Fraction(1, 3), Fraction(1, 2),
                  Fraction(2, 3), Fraction(1)]
    p = rng.choice([2, 3, 5])
    while True:
        chosen = sorted(rng.sample(candidates, rng.randint(1, 3)))
        blocks = []
        total = 0
        for a in chosen:
            b = a.denominator
            copies = rng.randint(1, max(1, (10 - total) // b))
            need = b * copies
            if total + need > 10:
                continue
            total += need
            blocks.append((a, copies))
        if total == 0 or not blocks:
            continue
        rows = [[0] * total for _ in range(total)]
        pos = 0
        for (a, copies) in blocks:
            b, numer = a.denominator, a.numerator
            for _ in range(copies):
                exps = [0] * b
                for k in rng.sample(range(b), numer):
                    exps[k] = 1
                for j in range(b):
                    rows[pos + (j + 1) % b][pos + j] = p ** exps[j]
                pos += b
        ctx = make_context(p, 1, 40)
        return FIsocrystal.from_int_matrix(ctx, rows)


def _unimodular(rng, r, steps):
    """A product of ``steps`` random elementary row operations on the
    identity: an integer matrix of determinant 1."""
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(steps):
        i, j = rng.randrange(r), rng.randrange(r)
        if i != j:
            c = rng.randrange(-2, 3)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def non_split_recipe(rng, p=2, r=6, units=4, precision=32):
    """U diag(1, ..., 1, p, ..., p) V, with ``units`` ones and U, V
    unimodular integer matrices (invertible over Z_p): phi M lies between
    M and p M, so this is a Dieudonne module.  Most draws split into their
    slope parts M cap W_a; at p = 2, r = 6 the seeds below 3000 that give
    one that does not are 775, 1649, 1995 and 2824."""
    d = [1] * units + [p] * (r - units)
    U, V = _unimodular(rng, r, 2 * r), _unimodular(rng, r, 2 * r)
    rows = [[sum(U[i][k] * d[k] * V[k][j] for k in range(r))
             for j in range(r)] for i in range(r)]
    return FIsocrystal.from_int_matrix(make_context(p, 1, precision), rows)


NON_SPLIT_SEED = 775


def non_split_draw():
    """The recipe at ``NON_SPLIT_SEED``: slopes {0, 1/3 (x3), 1/2 (x2)},
    like ``non_split_rank6``, and no integral splitting."""
    return non_split_recipe(random.Random(NON_SPLIT_SEED))


def rank8_conj():
    """The problem document of ``four_slope_rank8`` in the basis of
    U = ``_unimodular(random.Random(1), 8, 16)``: Frobenius U A U^{-1}
    and Hodge lift U e_i for i in (1, 4, 5, 7).  Dense, with negative
    entries, and ker(phi mod p) is not spanned by standard vectors."""
    path = resources.files("dieudonne") / "corpus" / "four_slope_rank8.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    r = doc["rank"]
    u = sympy.Matrix(_unimodular(random.Random(1), r, 2 * r))
    a = u * sympy.Matrix(doc["phi_matrix"]) * u.inv()
    return dict(doc, name="rank8_conj",
                phi_matrix=[[int(a[i, j]) for j in range(r)]
                            for i in range(r)],
                hodge_f1={"columns": [[int(u[k, i]) for k in range(r)]
                                      for i in doc["hodge_f1"]]})
