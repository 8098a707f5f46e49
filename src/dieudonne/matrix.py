"""Dense matrix helpers shared by every layer.

Matrices are lists of rows.  Entries are any ring elements with ``+``,
``-``, ``*`` and ``is_zero()``: ``WittScalar`` and ``TruncatedSeries``
both qualify, so callers pass the zero (and one) of their ring.

These helpers sit below the layer modules, beside ``modp`` and ``series``,
because the benchmark's tracer (``bench/tracer.py``) wraps every public
function of the layer modules in a timing span, and a rank-8 report-all
makes about 1500 matrix products.  Functions defined here are never
wrapped, even when a layer imports them by name, so their time lands in
the self time of their callers.
"""

from __future__ import annotations


def mat_mul(a, b, zero):
    """a * b, skipping zero entries of both factors.

    A skipped entry counts as exactly zero: for series, its validity
    window never narrows the product's window.
    """
    m = len(b)
    c = len(b[0]) if m else 0
    out = [[zero] * c for _ in a]
    for ai, oi in zip(a, out):
        for k in range(m):
            x = ai[k]
            if x.is_zero():
                continue
            bk = b[k]
            for j in range(c):
                if not bk[j].is_zero():
                    oi[j] = oi[j] + x * bk[j]
    return out


def mat_add(a, b):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def identity(r, zero, one):
    return [[one if i == j else zero for j in range(r)] for i in range(r)]


def nilpotent_inverse(n_mat, zero, one, terms):
    """(1 + N)^{-1} by the finite geometric series 1 - N + N^2 - ...,
    summed through (-N)^terms or up to the first power that vanishes;
    exact when N^(terms + 1) = 0."""
    neg = [[-x for x in row] for row in n_mat]
    out = identity(len(n_mat), zero, one)
    term = neg
    for _ in range(terms):
        if all(x.is_zero() for row in term for x in row):
            break
        out = mat_add(out, term)
        term = mat_mul(term, neg, zero)
    return out


def transport(ctx, rows):
    """The matrix with the same integer representatives, rebuilt in ctx.

    Moves exact data between precision contexts: entries are reduced
    modulo the target's p^N, so publishing a boosted result truncates it
    and lifting keeps the representatives unchanged."""
    return [[ctx.scalar(x.c) for x in row] for row in rows]
