"""Linear algebra over the residue field F_q = F_{p^n}.

Vectors are tuples of residue elements (each a length-n tuple of ints mod
p, as produced by WittContext.residue).  Used for tangent-space images and
dimension counts.
"""

from __future__ import annotations


def gf_zero(ctx):
    return tuple([0] * ctx.n)


def gf_vec_sub(ctx, a, b):
    return [ctx.gf_sub(x, y) for x, y in zip(a, b)]


def gf_vec_scale(ctx, c, a):
    return [ctx.gf_mul(c, x) for x in a]


def gf_echelon(ctx, vectors):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(v) for v in vectors]
    m = len(rows[0]) if rows else 0
    ech = []
    pivots = []
    for row in rows:
        row = list(row)
        for erow, pc in zip(ech, pivots):
            if not ctx.gf_is_zero(row[pc]):
                row = gf_vec_sub(ctx, row, gf_vec_scale(ctx, row[pc], erow))
        lead = None
        for j in range(m):
            if not ctx.gf_is_zero(row[j]):
                lead = j
                break
        if lead is None:
            continue
        inv = ctx.gf_inv(row[lead])
        row = gf_vec_scale(ctx, inv, row)
        # back-substitute into earlier rows
        for idx in range(len(ech)):
            if not ctx.gf_is_zero(ech[idx][lead]):
                ech[idx] = gf_vec_sub(ctx, ech[idx],
                                      gf_vec_scale(ctx, ech[idx][lead], row))
        ech.append(row)
        pivots.append(lead)
    order = sorted(range(len(ech)), key=lambda i: pivots[i])
    return [ech[i] for i in order], [pivots[i] for i in order]


def gf_reduce(ctx, ech, pivots, vector):
    """Residual of a vector modulo the row space of an echelon basis."""
    row = list(vector)
    for erow, pc in zip(ech, pivots):
        if not ctx.gf_is_zero(row[pc]):
            row = gf_vec_sub(ctx, row, gf_vec_scale(ctx, row[pc], erow))
    return row


def gf_rank(ctx, vectors):
    ech, _ = gf_echelon(ctx, vectors)
    return len(ech)


def gf_kernel(ctx, rows):
    """Kernel of a matrix over F_q, as a list of coordinate vectors."""
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    ech, pivots = gf_echelon(ctx, rows)
    pivot_set = set(pivots)
    free = [j for j in range(nc) if j not in pivot_set]
    basis = []
    one = tuple([1] + [0] * (ctx.n - 1))
    for f in free:
        v = [gf_zero(ctx)] * nc
        v[f] = one
        for erow, pc in zip(ech, pivots):
            v[pc] = ctx.gf_sub(gf_zero(ctx), erow[f])
        basis.append(v)
    return basis


def gf_intersection(ctx, basis1, basis2):
    """Basis of the intersection of two spans."""
    if not basis1 or not basis2:
        return []
    m = len(basis1[0])
    # kernel of the matrix whose columns are basis1, -basis2
    rows = []
    for i in range(m):
        row = [basis1[j][i] for j in range(len(basis1))]
        row += [ctx.gf_sub(gf_zero(ctx), basis2[j][i])
                for j in range(len(basis2))]
        rows.append(row)
    out = []
    for rel in gf_kernel(ctx, rows):
        vec = [gf_zero(ctx)] * m
        for j in range(len(basis1)):
            c = rel[j]
            if not ctx.gf_is_zero(c):
                vec = [ctx.gf_add(vec[i], ctx.gf_mul(c, basis1[j][i]))
                       for i in range(m)]
        if any(not ctx.gf_is_zero(x) for x in vec):
            out.append(vec)
    ech, piv = gf_echelon(ctx, out)
    return ech


def gf_spaces_equal(ctx, basis1, basis2):
    """Equality of spans (reduced echelon forms are unique)."""
    e1, p1 = gf_echelon(ctx, basis1)
    e2, p2 = gf_echelon(ctx, basis2)
    return p1 == p2 and [list(map(tuple, r)) for r in e1] == \
        [list(map(tuple, r)) for r in e2]
