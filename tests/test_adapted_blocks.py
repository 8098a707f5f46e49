"""V_plus, V_minus from the component factors, checked against the
r^2 x r^2 bodies they replace on every module, and the carriers'
numerators against the restriction by one solve per echelon column.

``signed_block_lattices`` spans the Hom blocks of a pair set by the outer
products t f^T of the slope components t of M and of the dual module f
(``SlopeData.factor``), saturated in End(M) when the set is not a product
on a module that does not split, and ``Carrier.of`` restricts the two
conjugation numerators to its basis.  The ``*_reference`` functions below
are kept verbatim: the projector built as a sum of r^2 x r^2 sandwiches
and its fixed lattice (the former body), and the restriction by one solve
per echelon column.  The split instances are the seven corpus entries,
the eight seeded conjugated draws and the sigma-twisted n = 2 instance of
``test_carriers``, where the presentations agree exactly; the non-split
ones are ``NON_SPLIT``, where the lattices agree at no larger a loss.  A
report-all on ``non_split_rank6`` or ``four_slope_rank8`` builds no
r^2 x r^2 projector and no sandwich but the conjugation numerators.
"""

import itertools
import random

import pytest

from dieudonne import core, isocrystal, problems
from dieudonne.cli import load_corpus
from dieudonne.core import Carrier, _conjugation_numerators
from dieudonne.errors import InclusionViolated
from dieudonne.isocrystal import (_projector_fixed_lattice, sandwich_map,
                                  signed_block_lattices, slope_split)
from dieudonne.lattices import Lattice, SemilinearMap, restrict_map
from dieudonne.matrix import ring
from dieudonne.problems import Session
from dieudonne.witt import make_context

from instances import (conjugated_draws, non_split_draw, non_split_recipe,
                       sigma_twisted_instance)
from test_carriers import (CORPUS, decomposition, non_split_rank6_instance,
                           not_dieudonne_instance)


# ---------------------------------------------------------------------------
# the former bodies


def block_projector_reference(crystal, slope_data, pairs):
    ctx = crystal.ctx
    acc = None
    for (src, dst) in pairs:
        term = _hom_block_map_reference(ctx, slope_data, src, dst)
        acc = term if acc is None else acc.add(term)
    if acc is None:
        r2 = crystal.rank ** 2
        acc = SemilinearMap(ctx, [[ring(ctx).zero] * r2] * r2)
    return acc


def _hom_block_map_reference(ctx, slope_data, src, dst):
    e_src = slope_data.projectors[src]
    e_dst = slope_data.projectors[dst]
    den = e_src.denominator + e_dst.denominator
    loss = max(e_src.loss, e_dst.loss) + min(e_src.denominator,
                                             e_dst.denominator)
    return sandwich_map(ctx, e_dst.rows, e_src.rows,
                        twist=0, denominator=den, loss=loss)


def signed_block_lattices_reference(crystal, slope_data, pairs):
    return tuple(
        _projector_fixed_lattice(crystal.ctx,
                                 block_projector_reference(crystal,
                                                           slope_data,
                                                           blocks))
        for blocks in (pairs, [(b, a) for (a, b) in pairs]))


def _restricted_reference(S: Lattice, num: SemilinearMap) -> SemilinearMap:
    cols = []
    for b in S.ech:
        x = S.solve(num.apply_raw(b))
        if x is None:
            raise InclusionViolated(
                "block lattice is not stable under a conjugation numerator")
        cols.append(x)
    return SemilinearMap(S.ctx, list(zip(*cols)), twist=num.twist,
                         loss=max(num.loss, S.loss))


# ---------------------------------------------------------------------------
# instances


@pytest.fixture(scope="module")
def split_decompositions():
    out = [(name, Session(load_corpus(name)).decomp()) for name in CORPUS]
    out += [(f"conjugated-{k}", decomposition(X))
            for k, X in enumerate(conjugated_draws())]
    out.append(("sigma-twisted", decomposition(sigma_twisted_instance())))
    return tuple(out)


# the modules that do not split: the non-Dieudonne matrix of
# ``test_carriers``, ``non_split_rank6`` and the four recipe seeds below
# 3000 that do not split
NON_SPLIT = {"not-dieudonne": not_dieudonne_instance,
             "non_split_rank6": non_split_rank6_instance,
             "non_split_draw": non_split_draw}
NON_SPLIT.update(
    (f"recipe-{seed}", lambda seed=seed: non_split_recipe(random.Random(seed)))
    for seed in (1649, 1995, 2824))


def full_pairs(slope_data):
    slopes = slope_data.slope_list
    return [(a, b) for a in slopes for b in slopes if b > a]


def presentation(L):
    return L.ambient, L.rank, L.scale, L.loss, L.cols


# ---------------------------------------------------------------------------
# the checks


def test_block_bases_span_the_projector_lattices(split_decompositions):
    for name, D in split_decompositions:
        X, sd = D.crystal, D.slope_data
        assert sd.is_split, name
        pairs = full_pairs(sd)
        want = signed_block_lattices_reference(X, sd, pairs)
        for got, w in zip((D.V_plus, D.V_minus), want):
            assert presentation(got) == presentation(w), name
            # presented through the canonical columns: the carriers take
            # their coordinates on this echelon
            assert got.ech == got.cols, name
        # every proper pair set, through the library's public entry point
        for k in range(len(pairs)):
            sub = pairs[:k] + pairs[k + 1:]
            got = signed_block_lattices(sd, sub)
            want = signed_block_lattices_reference(X, sd, sub)
            assert [presentation(g) for g in got] == \
                [presentation(w) for w in want], (name, sub)


def test_block_maps_equal_the_restricted_numerators(split_decompositions):
    for name, D in split_decompositions:
        numerators = _conjugation_numerators(D.crystal)
        for sign in ("plus", "minus"):
            C = D.carrier(sign)
            assert C.lattice is getattr(D, f"V_{sign}"), (name, sign)
            for num, got in zip(numerators, (C.fwd, C.bwd)):
                want = _restricted_reference(C.lattice, num)
                assert (got.rows, got.twist, got.denominator, got.loss) == \
                    (want.rows, want.twist, want.denominator, want.loss), \
                    (name, sign)


def test_restriction_certifies_stability():
    # a numerator whose left factor mixes two components does not map
    # V_plus into itself: a solve fails, and the restriction refuses it
    D = Session(load_corpus("three_slope_rank4")).decomp()
    X = D.crystal
    fwd, bwd, vdet = _conjugation_numerators(X)
    R = ring(X.ctx)
    r = X.rank
    mixed = [[R.one] * r for _ in range(r)]
    bad = sandwich_map(X.ctx, mixed, X.inverse_numerator()[0],
                       twist=fwd.twist, denominator=vdet)
    with pytest.raises(InclusionViolated,
                       match="lattice is not stable under the map"):
        restrict_map(bad.scale_p(vdet), D.V_plus)
    with pytest.raises(InclusionViolated):
        _restricted_reference(D.V_plus, bad)


@pytest.mark.parametrize("name", NON_SPLIT)
def test_non_split_blocks_span_the_projector_lattices(name):
    # off the split corpus the outer products of the component factors,
    # saturated where the pair set is not a product, span the fixed
    # lattice of the r^2 x r^2 projector, at no larger a loss
    X = NON_SPLIT[name]()
    sd = slope_split(X)
    assert not sd.is_split
    pairs = full_pairs(sd)
    for k in range(1, len(pairs) + 1):
        for sub in map(list, itertools.combinations(pairs, k)):
            got = signed_block_lattices(sd, sub)
            want = signed_block_lattices_reference(X, sd, sub)
            for g, w in zip(got, want):
                assert g.equals(w) and g.loss <= w.loss, (name, sub)
                assert g.ech == g.cols, (name, sub)


@pytest.mark.parametrize("slope_pairs", [None, [["0", "1/3"], ["0", "1/2"]]])
def test_non_split_report_builds_no_r4_projector(monkeypatch, slope_pairs):
    # a report-all on a module that does not split builds each slope
    # projector's fixed lattice at rank r, and no sandwich but the two
    # conjugation numerators of the crystal at each precision it runs at
    X = non_split_rank6_instance()
    doc = {"name": "non_split_rank6", "p": 2, "n": 1, "precision": 32,
           "degree": 9, "rank": 6,
           "phi_matrix": [list(row) for row in X.source]}
    if slope_pairs:
        doc["slope_pairs"] = slope_pairs
    projectors, sandwiches = [], []
    real_fixed = isocrystal._projector_fixed_lattice
    real_sandwich = isocrystal.sandwich_map

    def fixed(ctx, proj):
        projectors.append(proj.nrows)
        return real_fixed(ctx, proj)

    def sandwich(ctx, left, right, *args, **kw):
        sandwiches.append((ctx.N, tuple(map(tuple, left)),
                           tuple(map(tuple, right))))
        return real_sandwich(ctx, left, right, *args, **kw)

    monkeypatch.setattr(isocrystal, "_projector_fixed_lattice", fixed)
    monkeypatch.setattr(isocrystal, "sandwich_map", sandwich)
    monkeypatch.setattr(core, "sandwich_map", sandwich)
    report = problems.run(problems.parse_dict(doc), problems.ANALYSES, 0)
    assert not report["analyses"]["decompose"]["module_splits_integrally"]
    assert projectors and set(projectors) == {X.rank}
    assert len(sandwiches) == len(set(sandwiches))
    numerators = set()
    for N in {s[0] for s in sandwiches}:
        Y = X.at_precision(make_context(2, 1, N))
        A, adj = Y.phi.rows, Y.inverse_numerator()[0]
        numerators |= {(N, tuple(map(tuple, left)), tuple(map(tuple, right)))
                       for left, right in ((A, adj), (adj, A))}
    assert X.ctx.N in {s[0] for s in sandwiches}
    assert set(sandwiches) <= numerators


def test_split_report_builds_no_r4_projector_and_each_numerator_once(
        monkeypatch):
    doc = load_corpus("four_slope_rank8")
    r2 = doc.rank ** 2
    problems.run(doc, problems.ANALYSES, 0)   # warm
    D = Session(doc).decomp()
    projectors, sandwiches, carriers = [], [], []
    real_fixed = isocrystal._projector_fixed_lattice
    real_sandwich = isocrystal.sandwich_map
    real_of = Carrier.of.__func__

    def fixed(ctx, proj):
        projectors.append(proj.nrows)
        return real_fixed(ctx, proj)

    def sandwich(ctx, left, right, *args, **kw):
        sandwiches.append((ctx.N, tuple(map(tuple, left)),
                           tuple(map(tuple, right))))
        return real_sandwich(ctx, left, right, *args, **kw)

    def of(cls, S, sign, slope_data):
        carriers.append(S.cols)
        return real_of(cls, S, sign, slope_data)

    monkeypatch.setattr(isocrystal, "_projector_fixed_lattice", fixed)
    monkeypatch.setattr(isocrystal, "sandwich_map", sandwich)
    monkeypatch.setattr(core, "sandwich_map", sandwich)
    monkeypatch.setattr(Carrier, "of", classmethod(of))
    report = problems.run(load_corpus("four_slope_rank8"),
                          problems.ANALYSES, 0)
    assert report["analyses"]["decompose"]["module_splits_integrally"]
    # the minus carrier of each of the six slope pairs, whose O_minus
    # every larger pair set sums; the plus carrier of each of the three
    # slope_pairs whose sign modules ``dual`` builds; and the full
    # V_minus one of o_minus(); each built once
    expected = [D.signed([pair])[1].cols for pair in D.pairs]
    expected += [D.signed([pair])[0].cols for pair in
                 Session(doc).pair_set().pairs]
    expected.append(D.V_minus.cols)
    assert len(carriers) == 10
    assert sorted(carriers) == sorted(expected)
    assert [n for n in projectors if n == r2] == []
    # each conjugation numerator is built once per crystal (the
    # trivializer's boosted crystal has its own), and no Hom-block term:
    # the factors of x -> A sigma(x) A_adj and of its inverse
    # sigma^{-1}(A_adj x A)
    X = D.crystal
    N, e = X.ctx.N, (-1) % X.ctx.n
    R = ring(X.ctx)
    A, adj = X.phi.rows, X.inverse_numerator()[0]
    numerators = [(N, tuple(map(tuple, left)), tuple(map(tuple, right)))
                  for left, right in ((A, adj), (R.frob_mat(adj, e),
                                                 R.frob_mat(A, e)))]
    assert len(sandwiches) == len(set(sandwiches))
    assert sorted(s for s in sandwiches if s[0] == N) == sorted(numerators)
