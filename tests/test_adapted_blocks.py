"""V_plus, V_minus and the carriers' numerators from the component blocks,
checked against the r^2 x r^2 bodies they replace on split modules.

When the module splits integrally (e_a = U_a D_a with integral factors),
``signed_block_lattices`` spans each signed lattice by the block bases
U_dst[:, i] D_src[j, :], and ``Carrier.of`` restricts the two conjugation
numerators block by block from their factors.  The ``*_reference``
functions below are the former bodies, kept verbatim: the projector built
as a sum of r^2 x r^2 sandwiches and its fixed lattice, and the
restriction by one solve per echelon column.  The instances are the seven
corpus entries, the eight seeded conjugated draws and the sigma-twisted
n = 2 instance of ``test_carriers``; a module that does not split keeps
the projector path.
"""

import pytest

from dieudonne import core, isocrystal, problems
from dieudonne.cli import load_corpus
from dieudonne.core import Carrier, _conjugation_numerators
from dieudonne.errors import InclusionViolated
from dieudonne.isocrystal import (_component_bases, _projector_fixed_lattice,
                                  block_projector, sandwich_map,
                                  signed_block_lattices)
from dieudonne.lattices import Lattice, SemilinearMap
from dieudonne.matrix import ring
from dieudonne.problems import Session

from test_carriers import (CORPUS, conjugated_draws, decomposition,
                           not_dieudonne_instance, sigma_twisted_instance)


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
        assert sd.is_split and _component_bases(sd) is not None, name
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
            got = signed_block_lattices(X, sd, sub)
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


def test_block_maps_certify_component_stability():
    # a numerator whose factors mix two components: the off-diagonal
    # blocks do not vanish, and the carrier refuses the lattice
    D = Session(load_corpus("three_slope_rank4")).decomp()
    X, sd = D.crystal, D.slope_data
    fwd, bwd, vdet = _conjugation_numerators(X)
    R = ring(X.ctx)
    r = X.rank
    mixed = [[R.one] * r for _ in range(r)]
    bad = isocrystal.Sandwich(X.ctx, mixed, fwd.right, twist=fwd.twist,
                              denominator=vdet)
    bases, pairs = _component_bases(sd), full_pairs(sd)
    T, tinv = core._block_rows(D.V_plus, bases, pairs)
    with pytest.raises(InclusionViolated):
        core._block_restricted(bad, bases, pairs, T, tinv)
    with pytest.raises(InclusionViolated):
        _restricted_reference(D.V_plus, bad)


def test_non_split_module_takes_the_projector_path(monkeypatch):
    X = not_dieudonne_instance()
    D = decomposition(X)
    sd = D.slope_data
    assert not sd.is_split and _component_bases(sd) is None
    built = []
    real = isocrystal._projector_fixed_lattice

    def counted(ctx, proj):
        built.append(proj.nrows)
        return real(ctx, proj)

    monkeypatch.setattr(isocrystal, "_projector_fixed_lattice", counted)
    pairs = full_pairs(sd)
    got = signed_block_lattices(X, sd, pairs)
    assert built == [X.rank ** 2, X.rank ** 2]
    want = signed_block_lattices_reference(X, sd, pairs)
    assert [presentation(g) for g in got] == [presentation(w) for w in want]
    assert all(g.loss > 0 for g in got)
    # the terms stay unbuilt until the sum needs them, and then agree
    terms = block_projector(X, sd, pairs)
    assert all(t._rows is None for t in terms.values())
    for (src, dst), term in terms.items():
        ref = _hom_block_map_reference(X.ctx, sd, src, dst)
        assert (term.rows, term.denominator, term.loss) == \
            (ref.rows, ref.denominator, ref.loss)


def test_split_report_builds_no_r4_projector_or_carrier_image(monkeypatch):
    doc = load_corpus("four_slope_rank8")
    r2 = doc.rank ** 2
    problems.run(doc, problems.ANALYSES, 0)   # warm
    projectors, carrier_images, carriers = [], [], []
    inside = []
    real_fixed = isocrystal._projector_fixed_lattice
    real_apply = SemilinearMap.apply_raw
    real_of = Carrier.of.__func__

    def fixed(ctx, proj):
        projectors.append(proj.nrows)
        return real_fixed(ctx, proj)

    def apply_raw(self, col):
        if inside and self.nrows == r2:
            carrier_images.append(len(col))
        return real_apply(self, col)

    def of(cls, *args, **kwargs):
        carriers.append(cls)
        inside.append(True)
        try:
            return real_of(cls, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(isocrystal, "_projector_fixed_lattice", fixed)
    monkeypatch.setattr(SemilinearMap, "apply_raw", apply_raw)
    monkeypatch.setattr(Carrier, "of", classmethod(of))
    report = problems.run(load_corpus("four_slope_rank8"),
                          problems.ANALYSES, 0)
    assert report["analyses"]["decompose"]["module_splits_integrally"]
    assert len(carriers) == 2
    assert [n for n in projectors if n == r2] == []
    assert carrier_images == []
