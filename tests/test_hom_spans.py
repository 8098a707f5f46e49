"""The Hodge grading's blocks and the symplectic Lie conditions as outer
products, checked against the position-by-position bodies they replaced.

``HodgeSplitting.hom_f1_f0`` and ``diagonal_blocks`` span their blocks
by ``R.outer`` of a column of P (the basis F^1 | F^0) and a row of
P^{-1}, one group per block (``isocrystal._hom_span``).
``block_lattice_reference`` is the former body, kept verbatim with its
weight of a position: it runs over the r^2 positions (i, j) and keeps
P E_ij P^{-1} when the block of (i, j) has one of the given weights.
Both must give the same lattice at the same presentation (``cols``,
``pivots``, ``ech``), on the seven corpus entries, ``rank8_conj``, the
eight seeded conjugated draws (split from the kernel of phi mod p) and
``example_1_7`` with an explicit ``{"columns": ...}`` Hodge lift that is
not made of standard vectors.

``symplectic_rows_reference`` is the former hand-indexed double loop of
the Lie conditions x^T G + G x = 0 of ``strata.group_symplectic``; the
rows it builds and its Lie lattice must be the ones of the two polarized
corpus entries.
"""

import json
import random

import pytest

from dieudonne import strata
from dieudonne.cli import load_corpus
from dieudonne.core import hodge_splitting_from_kernel
from dieudonne.lattices import Lattice, matrix_kernel
from dieudonne.matrix import ring
from dieudonne.problems import Session, emit_spec, parse_dict

from instances import conjugated_draws, rank8_conj
from test_carriers import CORPUS


def weight_of_position_reference(split, i, j):
    """Weight of the (i, j) block entry in the (F1 | F0) basis order:
    maps F1->F0 have weight +1, F0->F1 weight -1, diagonal 0."""
    from_f1 = j < split.d
    to_f1 = i < split.d
    if from_f1 and not to_f1:
        return 1
    if to_f1 and not from_f1:
        return -1
    return 0


def block_lattice_reference(split, weights):
    """Integral lattice of endomorphisms whose (F1|F0)-blocks are
    supported on the given weights."""
    ctx = split.ctx
    scale = ring(ctx).scale
    r = split.crystal.rank
    gens = []
    for i in range(r):
        for j in range(r):
            if weight_of_position_reference(split, i, j) not in weights:
                continue
            # P E_ij P^{-1}: column i of P times row j of P^{-1}
            gens.append([x for prow in split.P_rows
                         for x in scale(split.Pinv_rows[j], prow[i])])
    if not gens:
        return Lattice.zero(ctx, r * r)
    return Lattice.from_columns(ctx, r * r, gens)


def symplectic_rows_reference(R, r, g):
    # condition rows for x^T G + G x = 0, unknowns x (row-major)
    rows = []
    for a in range(r):
        for b in range(r):
            row = [R.zero] * (r * r)
            # (x^T G)_{ab} = sum_k x[k][a] G[k][b]
            for k in range(r):
                row[k * r + a] = R.add(row[k * r + a], g[k][b])
            # (G x)_{ab} = sum_k G[a][k] x[k][b]
            for k in range(r):
                row[k * r + b] = R.add(row[k * r + b], g[a][k])
            rows.append(row)
    return rows


def explicit_example_1_7():
    """``example_1_7`` with its Hodge lift e_i (i in hodge_f1) given as
    explicit columns e_i + p v_i, v_i seeded: the same F^1 mod p, another
    F^1 and so another grading."""
    doc = json.loads(emit_spec(load_corpus("example_1_7")))
    r, p, n = doc["rank"], doc["p"], doc["n"]
    rng = random.Random(7)
    cols = []
    for i in doc["hodge_f1"]:
        col = [[p * rng.randrange(-3, 4) for _ in range(n)] for _ in range(r)]
        col[i][0] += 1
        cols.append(col)
    return dict(doc, hodge_f1={"columns": cols})


def _splittings():
    out = [(name, Session(load_corpus(name)).split()) for name in CORPUS]
    out.append(("rank8_conj", Session(parse_dict(rank8_conj())).split()))
    out += [(f"conjugated-{k}", hodge_splitting_from_kernel(X))
            for k, X in enumerate(conjugated_draws())]
    out.append(("example_1_7-columns",
                Session(parse_dict(explicit_example_1_7())).split()))
    return out


@pytest.fixture(scope="module")
def splittings():
    return _splittings()


def _presentation(L):
    return L.cols, L.pivots, L.ech, L.ech_pivots, L.scale, L.loss


def test_hodge_blocks_match_the_weight_grading(splittings):
    assert len(splittings) == len(CORPUS) + 10
    for name, split in splittings:
        for got, weights in ((split.hom_f1_f0(), {1}),
                             (split.diagonal_blocks(), {0})):
            want = block_lattice_reference(split, weights)
            assert _presentation(got) == _presentation(want), (name, weights)
        assert split.hom_f1_f0().rank == split.d * split.c, name


def test_explicit_hodge_lift_moves_the_grading(splittings):
    # the explicit columns reach the blocks: the grading is not the one
    # of the standard lift, whose F^1 has the same residues.  Both lifts
    # take the same F^0, and Hom(F^1, F^0) (the maps that kill F^0 and
    # land in F^0) depends on F^0 alone; End(F^1) + End(F^0) moves with
    # F^1.
    split = dict(splittings)["example_1_7-columns"]
    plain = Session(load_corpus("example_1_7")).split()
    assert split.F1.cols != plain.F1.cols
    assert split.F0.cols == plain.F0.cols
    assert split.hom_f1_f0().cols == plain.hom_f1_f0().cols
    assert split.diagonal_blocks().cols != plain.diagonal_blocks().cols


@pytest.mark.parametrize("name", ["symplectic_ordinary_c2",
                                  "elliptic_polarized"])
def test_symplectic_lie_conditions_match_the_hand_built_rows(
        name, monkeypatch):
    spec = load_corpus(name)
    X = Session(spec).crystal()
    R = ring(X.ctx)
    seen = []

    def kernel(ctx, rows, neff, *args):
        seen.append(rows)
        return matrix_kernel(ctx, rows, neff, *args)
    monkeypatch.setattr(strata, "matrix_kernel", kernel)
    gd = strata.group_symplectic(X, spec.symplectic_gram)
    want = symplectic_rows_reference(R, X.rank,
                                     R.raw_mat(spec.symplectic_gram))
    assert seen == [want]
    lie = Lattice.from_columns(X.ctx, X.rank ** 2,
                               matrix_kernel(X.ctx, want, X.ctx.N))
    assert _presentation(gd.lie) == _presentation(lie)
