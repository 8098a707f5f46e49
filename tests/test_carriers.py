"""Stable-lattice closures in block coordinates, checked against the End(M)
bodies they replace.

The closures, their stability certificates and the codimension now run on
the coordinate lattices of a ``core.Carrier`` (the saturated V_plus or
V_minus of the decomposition, with the conjugation numerators restricted
to its echelon basis; End(M) itself on a module that does not split
integrally), whose sign decides the stability rule.  The ``*_reference``
functions below are the former ambient bodies, kept verbatim; their mode
"positive" is the sign "plus" and "negative" the sign "minus".  Every
result must agree with them in ambient rank, rank, scale, loss and
canonical columns, and every failure in its exception type and message,
on the carrier of its sign, on the carrier of the same lattice built with
the other sign, and on End(M) itself.

Instances: all seven corpus entries at every non-empty pair set, the first
eight seeded ``conjugated_instance`` draws of ``test_dense_conjugated_
pipeline`` (the third has an echelon order that differs from the
canonical one), the sigma-twisted n = 2 instance of
``test_sigma_twisted_conjugation_invariance``, two isocrystals whose
slopes are more than 1 apart at low precision, where the closures raise
``HypothesisViolated`` and ``PrecisionExhausted``, and an F-crystal that
does not split integrally and is not a Dieudonne module (its block
lattices carry a loss).
"""

import pytest

from dieudonne.cli import load_corpus
from dieudonne.core import (Carrier, _conjugation_numerators,
                            _iteration_cap, _maps_into, _membership_refine,
                            codim_of_dieudonne, largest_sub_dieudonne,
                            smallest_stable_superlattice,
                            smallest_super_dieudonne)
from dieudonne.errors import (HypothesisViolated, InclusionViolated,
                              NonConvergence, PrecisionExhausted)
from dieudonne.isocrystal import (FIsocrystal, end_decompose,
                                  signed_block_lattices, slope_split)
from dieudonne.lattices import Lattice, kernel_span, mod_p_dimension
from dieudonne.matrix import ring
from dieudonne.problems import Session
from dieudonne.signs import SlopePairSet, dual_lattice, sign_modules
from dieudonne.witt import make_context

from instances import (conjugated_draws, non_split_rank6, pair_subsets,
                       sigma_twisted_instance)

CORPUS = ["ordinary_rank2", "supersingular_rank2", "example_1_7",
          "three_slope_rank4", "four_slope_rank8", "elliptic_polarized",
          "symplectic_ordinary_c2"]


# ---------------------------------------------------------------------------
# the former bodies


def smallest_stable_superlattice_reference(V: Lattice, numerator_steps,
                                           denominator) -> Lattice:
    ctx = V.ctx
    R = ring(ctx)
    cur = V
    for _ in range(_iteration_cap(V)):
        deepest = max((e for (_, e) in cur.pivots), default=0)
        if cur.scale + denominator + deepest >= ctx.N - 2:
            raise PrecisionExhausted(
                "closure rescaling exhausted the working precision; "
                "rebuild the context with a larger exponent")
        gens = cur._scaled_cols(denominator)
        for (num, extra) in numerator_steps:
            pe = R.of_int(ctx.p ** extra)
            for c in cur.cols:
                img = num.apply_raw(c)
                if extra:
                    img = R.scale(img, pe)
                gens.append(img)
        nxt = Lattice.from_columns(ctx, cur.ambient, gens,
                                   scale=cur.scale + denominator,
                                   loss=cur.loss)
        if (nxt.rank == cur.rank
                and nxt.index_valuation()
                == cur.index_valuation() + cur.rank * denominator):
            # nxt contains the rescaled cur with equal volume: stable
            return cur
        cur = nxt
    raise NonConvergence("stable-superlattice iteration did not converge")


def _membership_refine_reference(E: Lattice, num_map, shift: int
                                 ) -> Lattice:
    ctx = E.ctx
    amb = E.ambient
    cur = E
    last = None
    for _ in range(_iteration_cap(E)):
        if cur.rank == 0:
            return cur
        imgs = [num_map.apply_raw(c) for c in cur.cols]
        stacked = imgs + cur._scaled_cols(shift)
        gens = kernel_span(ctx, stacked, cur.cols, ctx.N - cur.loss, amb)
        nxt = Lattice.from_columns(ctx, amb, gens, scale=cur.scale,
                                   loss=cur.loss)
        sig = (nxt.rank, nxt.index_valuation())
        if sig == (cur.rank, cur.index_valuation()):
            # same rank and volume inside a sublattice: equal
            return cur
        if last == sig:
            return nxt
        last = sig
        cur = nxt
    raise NonConvergence("stable-sublattice refinement did not converge")


def largest_sub_dieudonne_reference(V: Lattice, crystal: FIsocrystal,
                                    mode: str = "negative") -> Lattice:
    fwd_num, bwd_num, vdet = _conjugation_numerators(crystal)
    if mode == "negative":
        # phi^{-1}(x) in E  <=>  bwd_num(x) in p^vdet E
        out = _membership_refine_reference(V, bwd_num, vdet)
        checks = [(bwd_num, vdet, "phi^{-1}"), (fwd_num, vdet - 1, "p phi")]
    elif mode == "positive":
        out = _membership_refine_reference(V, fwd_num, vdet)
        checks = [(fwd_num, vdet, "phi"),
                  (bwd_num, vdet - 1, "p phi^{-1}")]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    for num, shift, name in checks:
        if not _maps_into_reference(out, num, shift):
            raise HypothesisViolated(
                f"fixed point is not stable under {name}")
    return out


def _maps_into_reference(E: Lattice, num_map, shift: int) -> bool:
    R = ring(E.ctx)
    up = max(0, -shift)
    down = max(0, shift)
    target = Lattice.from_columns(
        E.ctx, E.ambient, E._scaled_cols(down),
        scale=E.scale, loss=E.loss) if down else E
    pk = R.of_int(E.ctx.p ** up)
    for c in E.cols:
        img = num_map.apply_raw(c)
        if up:
            img = R.scale(img, pk)
        if target.solve(img, target.scale) is None:
            return False
    return True


def smallest_super_dieudonne_reference(V: Lattice, crystal: FIsocrystal,
                                       mode: str = "positive") -> Lattice:
    fwd_num, bwd_num, vdet = _conjugation_numerators(crystal)
    if mode == "positive":
        # phi = p^-vdet fwd_num ; p phi^{-1} = p^{1-vdet} bwd_num
        steps = [(fwd_num, 0), (bwd_num, 1)]
    elif mode == "negative":
        steps = [(fwd_num, 1), (bwd_num, 0)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out = smallest_stable_superlattice_reference(V, steps, vdet)
    checks = ([(fwd_num, vdet, "phi"), (bwd_num, vdet - 1, "p phi^{-1}")]
              if mode == "positive"
              else [(fwd_num, vdet - 1, "p phi"),
                    (bwd_num, vdet, "phi^{-1}")])
    for num, shift, name in checks:
        if not _maps_into_reference(out, num, shift):
            raise HypothesisViolated(
                f"fixed point is not stable under {name}")
    return out


def codim_of_dieudonne_reference(E: Lattice, crystal: FIsocrystal) -> int:
    ctx = E.ctx
    _, bwd_num, vdet = _conjugation_numerators(crystal)
    img = Lattice.from_columns(
        ctx, E.ambient, [bwd_num.apply_raw(c) for c in E.cols],
        scale=E.scale + vdet, loss=E.loss)
    if not E.contains(img):
        raise InclusionViolated("(E, p phi) is not a Dieudonne lattice")
    return mod_p_dimension(img, E)


# ---------------------------------------------------------------------------
# instances


# slopes {0, 2} and {0, 3} at N = 12: V_minus has conjugation slopes
# below -1, so the closures meet both failures
SLOPE_GAPS = [(3, [[1, 0], [0, 9]]), (5, [[1, 0], [0, 125]])]


def slope_gap_instance(p, rows):
    return FIsocrystal.from_int_matrix(make_context(p, 1, 12), rows)


# slopes {0, 1/2, 1} over Z_2 whose components do not sum to M: two slope
# projectors carry a p-denominator and V_plus, V_minus a loss of 2.  Not a
# Dieudonne module: the matrix has Smith form diag(1, 1, 1, 28), and
# 4 = p^2 divides 28, so p phi does not map End(M) into itself.
NOT_DIEUDONNE = (2, [[2, 0, 1, 3], [3, 2, 1, 3], [0, 3, 1, 3],
                     [0, 1, 2, 2]])


def not_dieudonne_instance():
    p, rows = NOT_DIEUDONNE
    return FIsocrystal.from_int_matrix(make_context(p, 1, 32), rows)


def non_split_rank6_instance():
    return non_split_rank6(make_context(2, 1, 32))


def decomposition(crystal):
    return end_decompose(slope_split(crystal))


@pytest.fixture(scope="module")
def decompositions():
    """(name, decomposition) of every instance, built once per module."""
    out = [(name, Session(load_corpus(name)).decomp()) for name in CORPUS]
    out += [(f"conjugated-{k}", decomposition(X))
            for k, X in enumerate(conjugated_draws())]
    out.append(("sigma-twisted", decomposition(sigma_twisted_instance())))
    out += [(f"slope-gap-{p}", decomposition(slope_gap_instance(p, rows)))
            for p, rows in SLOPE_GAPS]
    out.append(("not-dieudonne", decomposition(not_dieudonne_instance())))
    return tuple(out)


# ---------------------------------------------------------------------------
# comparisons


def outcome(fn):
    """A lattice as its full presentation, or the failure it raised."""
    try:
        out = fn()
    except (HypothesisViolated, PrecisionExhausted, NonConvergence,
            InclusionViolated) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, Lattice):
        return out.ambient, out.rank, out.scale, out.loss, out.cols
    return out


def same(new, ref):
    assert outcome(new) == outcome(ref)


def test_carriers_restrict_the_numerators_exactly(decompositions):
    # the carriers of the full V_plus and V_minus, and those of each
    # single slope pair
    for name, D in decompositions:
        X = D.crystal
        R = ring(X.ctx)
        numerators = _conjugation_numerators(X)
        for pairs, sign in [(p, s) for p in [None] + [[q] for q in D.pairs]
                            for s in ("plus", "minus")]:
            C = D.carrier(sign, pairs)
            if C.lattice is None:
                # a module that does not split, or a lattice with a loss,
                # is handled as End(M)
                assert name not in CORPUS, (name, sign)
                assert (getattr(D, f"V_{sign}").loss > 0
                        or not D.slope_data.is_split)
                assert (C.fwd, C.bwd, C.vdet) == numerators
                continue
            B = [list(b) for b in C.lattice.ech]
            if pairs is None:
                assert C.lattice is getattr(D, f"V_{sign}")
            else:
                single = signed_block_lattices(D.slope_data, pairs)
                assert C.lattice.cols == single[sign == "minus"].cols
            assert C.vdet == numerators[2]
            for num, restricted in zip(numerators, (C.fwd, C.bwd)):
                assert restricted.twist == num.twist
                assert restricted.nrows == restricted.ncols == len(B)
                # N sigma(B) = B C, column by column, exactly
                cols = [list(c) for c in zip(*restricted.rows)]
                assert [num.apply_raw(b) for b in B] == \
                    R.mul_mat(cols, B), (name, sign)


def test_non_split_decomposition_uses_the_ambient_carrier():
    for instance in (not_dieudonne_instance, non_split_rank6_instance):
        D = decomposition(instance())
        X, sd = D.crystal, D.slope_data
        assert not sd.is_split
        for sign in ("plus", "minus"):
            C = D.carrier(sign)
            assert C.lattice is None
            assert (C.fwd, C.bwd, C.vdet) == _conjugation_numerators(X)
        # on a module that does not split, a lattice of loss 0 is handled
        # as End(M) too
        S = Lattice.from_columns(X.ctx, D.V_plus.ambient, D.V_plus.cols)
        assert S.loss == 0
        C = Carrier.of(S, "plus", sd)
        assert C.lattice is None
        assert (C.fwd, C.bwd, C.vdet) == _conjugation_numerators(X)


def test_carrier_refuses_a_graph_lattice():
    # each basis vector of one Hom block plus one vector of another: a
    # saturated lattice of the first block's rank, which the conjugation
    # numerators do not map into itself
    D = Session(load_corpus("three_slope_rank4")).decomp()
    X, sd = D.crystal, D.slope_data
    R = ring(X.ctx)
    first, _ = D.signed(D.pairs[:1])
    other, _ = D.signed(D.pairs[1:2])
    graph = Lattice.from_columns(X.ctx, first.ambient, [
        [R.add(x, y) for x, y in zip(col, other.cols[0])]
        for col in first.cols])
    assert graph.rank == first.rank
    assert not graph.scale and all(e == 0 for _, e in graph.ech_pivots)
    with pytest.raises(InclusionViolated,
                       match="lattice is not stable under the map"):
        Carrier.of(graph, "plus", sd)
    # the block itself is a carrier
    assert Carrier.of(first, "plus", sd).lattice is first


def test_ambient_carrier_is_the_identity():
    D = Session(load_corpus("three_slope_rank4")).decomp()
    amb = ambient(D.crystal, "minus")
    fwd, bwd, vdet = _conjugation_numerators(D.crystal)
    assert (amb.fwd, amb.bwd, amb.vdet) == (fwd, bwd, vdet)
    assert amb.coords(D.V_minus) is D.V_minus
    assert amb.lift(D.V_minus) is D.V_minus


def test_carrier_coordinates_round_trip():
    D = Session(load_corpus("four_slope_rank8")).decomp()
    C = D.carrier("minus")
    for L in (D.V_minus, D.o_minus()):
        X = C.coords(L)
        assert X.ambient == D.V_minus.rank
        assert (X.rank, X.scale, X.loss) == (L.rank, L.scale, L.loss)
        assert sorted(e for _, e in X.pivots) == \
            sorted(e for _, e in L.pivots)
        assert C.lift(X).cols == L.cols
    with pytest.raises(InclusionViolated):
        C.coords(D.V_plus)


def test_carrier_rejects_unstable_or_unsaturated_lattices():
    D = Session(load_corpus("three_slope_rank4")).decomp()
    ctx = D.crystal.ctx
    r2 = D.V_minus.ambient
    sd = D.slope_data
    # one Hom-block column next to one of the opposite sign: not stable
    mixed = Lattice.from_columns(ctx, r2, [D.V_minus.cols[0],
                                           D.V_plus.cols[0]])
    with pytest.raises(InclusionViolated):
        Carrier.of(mixed, "minus", sd)
    pV = Lattice.from_columns(ctx, r2, D.V_minus._scaled_cols(1))
    with pytest.raises(InclusionViolated):
        Carrier.of(pV, "minus", sd)


@pytest.mark.parametrize("name", CORPUS)
def test_sign_modules_match_the_ambient_closures(name):
    # every pair set of the entry, through the signs path: each pair in
    # the carriers of its own block lattices, larger sets as their sums
    sess = Session(load_corpus(name))
    X, D = sess.crystal(), sess.decomp()
    slopes = sess.slope_data().slope_list
    for Y in pair_subsets(SlopePairSet.full(slopes)):
        if not Y.pairs:
            continue
        mods = sign_modules(D, Y)
        same(lambda: mods.O_plus, lambda: largest_sub_dieudonne_reference(
            mods.V_plus, X, mode="positive"))
        same(lambda: mods.O_minus, lambda: largest_sub_dieudonne_reference(
            mods.V_minus, X, mode="negative"))
        same(lambda: mods.O_plus_minus,
             lambda: smallest_super_dieudonne_reference(
                 mods.V_plus_minus, X, mode="positive"))
        same(lambda: mods.O_minus_plus,
             lambda: smallest_super_dieudonne_reference(
                 mods.V_minus_plus, X, mode="negative"))
        if mods.O_minus.rank:
            assert D.c_minus(Y.pairs) == \
                codim_of_dieudonne_reference(mods.O_minus, X)


def family(D):
    """The block lattices of the full pair set and their trace duals, each
    with the carrier whose span holds it."""
    Vp, Vm = D.V_plus, D.V_minus
    plus, minus = D.carrier("plus"), D.carrier("minus")
    return [(Vp, plus), (Vm, minus), (dual_lattice(Vm, Vp), plus),
            (dual_lattice(Vp, Vm), minus)]


# the former bodies' mode of each sign
MODE = {"plus": "positive", "minus": "negative"}
OPPOSITE = {"plus": "minus", "minus": "plus"}


def ambient(crystal, sign):
    """End(M) itself as the carrier of ``sign``."""
    return Carrier(None, *_conjugation_numerators(crystal), sign)


def opposite(C):
    """The carrier of the same lattice built with the other sign."""
    return Carrier(C.lattice, C.fwd, C.bwd, C.vdet, OPPOSITE[C.sign])


def stable_or_none(fn):
    try:
        return fn()
    except (HypothesisViolated, PrecisionExhausted):
        return None


def multi_slope(decompositions):
    return [(name, D) for name, D in decompositions
            if len(D.slope_data.slope_list) > 1]


# the opposite sign's closures refine to zero or run out of precision,
# over many rounds of r^2 x r^2 products: compared up to this ambient rank
# only
OPPOSITE_MODE_AMBIENT = 16


def test_closures_match_on_every_instance(decompositions):
    for name, D in multi_slope(decompositions):
        X = D.crystal
        for V, C in family(D):
            carriers = [C]
            if V.ambient <= OPPOSITE_MODE_AMBIENT:
                carriers.append(opposite(C))
            # End(M) itself as the carrier
            carriers.append(ambient(X, C.sign))
            for K in carriers:
                m = MODE[K.sign]
                same(lambda: largest_sub_dieudonne(V, K),
                     lambda: largest_sub_dieudonne_reference(V, X, m))
                same(lambda: smallest_super_dieudonne(V, K),
                     lambda: smallest_super_dieudonne_reference(V, X, m))


def test_closures_carry_the_loss(decompositions):
    # a lattice trusted only modulo p^(N - loss): the loss bounds every
    # elimination and is published unchanged
    for name, D in decompositions:
        if name not in ("three_slope_rank4", "sigma-twisted"):
            continue
        X = D.crystal
        for V, C in family(D):
            mode = MODE[C.sign]
            for loss in (1, 3):
                W = V.with_loss(loss)
                same(lambda: largest_sub_dieudonne(W, C),
                     lambda: largest_sub_dieudonne_reference(W, X, mode))
                same(lambda: smallest_super_dieudonne(W, C),
                     lambda: smallest_super_dieudonne_reference(W, X, mode))


def test_closures_raise_the_same_failures():
    # slopes more than 1 apart: the sign's own mode fails its certificate
    # on V_plus and V_minus, and runs out of precision on the duals
    seen = set()
    for p, rows in SLOPE_GAPS:
        D = decomposition(slope_gap_instance(p, rows))
        for V, C in family(D):
            for fn in (largest_sub_dieudonne, smallest_super_dieudonne):
                got = outcome(lambda: fn(V, C))
                seen.add(got[0])
    assert {"HypothesisViolated", "PrecisionExhausted"} <= seen


def test_codimension_matches_on_every_instance(decompositions):
    for name, D in multi_slope(decompositions):
        X = D.crystal
        minus = D.carrier("minus")
        Vmp = family(D)[3][0]
        lattices = [D.V_minus, Vmp] + [L for L in (
            stable_or_none(lambda: largest_sub_dieudonne_reference(
                D.V_minus, X, "negative")),
            stable_or_none(lambda: smallest_super_dieudonne_reference(
                Vmp, X, "negative"))) if L is not None and L.rank]
        for E in lattices:
            for K in (minus, ambient(X, "minus")):
                same(lambda: codim_of_dieudonne(E, K),
                     lambda: codim_of_dieudonne_reference(E, X))


def test_closure_bodies_match_in_coordinates(decompositions):
    # the bodies themselves, on coordinate lattices against End(M) ones:
    # the certificate with either numerator at the shifts the closures
    # use, the refinement with the numerator of the sign's mode
    for name, D in multi_slope(decompositions):
        X = D.crystal
        fwd, bwd, vdet = _conjugation_numerators(X)
        for V, C in family(D):
            pairs = ((C.fwd, fwd), (C.bwd, bwd))
            own = pairs[0] if C.sign == "plus" else pairs[1]
            O = stable_or_none(
                lambda: largest_sub_dieudonne_reference(V, X, MODE[C.sign]))
            for L in [V] + ([O] if O is not None else []):
                XL = C.coords(L)
                for shift in (vdet - 1, vdet):
                    for cnum, num in pairs:
                        assert _maps_into(XL, cnum, shift) == \
                            _maps_into_reference(L, num, shift), \
                            (name, shift)
                same(lambda: C.lift(_membership_refine(
                         XL, own[0], vdet, _iteration_cap(L))),
                     lambda: _membership_refine_reference(L, own[1], vdet))
            for extra in ((0, 1), (1, 0)):
                csteps = [(C.fwd, extra[0]), (C.bwd, extra[1])]
                steps = [(fwd, extra[0]), (bwd, extra[1])]
                same(lambda: C.lift(smallest_stable_superlattice(
                         C.coords(V), csteps, vdet, _iteration_cap(V))),
                     lambda: smallest_stable_superlattice_reference(
                         V, steps, vdet))
