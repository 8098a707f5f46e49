"""Sign modules of a pair set assembled from its pairs, checked against the
direct computation they replace on modules that split integrally, and the
decomposition as the one owner of O_minus and c_minus of every pair set,
which the pair-set analyses other than ``dual`` read without building
sign modules.

When M splits integrally, both conjugation numerators preserve every
Hom(W_a, W_b), so the signed lattices of a pair set Y and their closures
and trace duals are the sums of those of the pairs of Y, and c_minus(Y)
is the sum of theirs.  ``signs.sign_modules`` computes each pair once per
decomposition, in the block coordinates of its own carriers, and builds
every larger pair set as a sum; its O_minus and c_minus are
``EndDecomposition.o_minus(Y)`` and ``c_minus(Y)``, which sum the pairs
the same way and certify the full set's direct closure against the sum.
``sign_modules_reference`` below is the former direct body, kept
verbatim but for its signature: every closure, dual and cross-check of
Y on the carriers of the full V_plus and V_minus, and the codimension of
its O_minus.  Both must agree on all eight lattices (equal spans and the
same canonical presentation: rank, scale, loss and basis columns), and
the decomposition's accessors must publish its O_minus and c_minus, for
every non-empty pair set of the seven corpus entries, the eight seeded
conjugated draws and the sigma-twisted n = 2 instance.  A module that does
not split keeps the direct path.
"""

from collections import Counter

import pytest

from dieudonne import core, isocrystal, problems, signs, strata
from dieudonne.cli import load_corpus
from dieudonne.core import (codim_of_dieudonne, largest_sub_dieudonne,
                            smallest_super_dieudonne)
from dieudonne.errors import (DualityMismatch, PrecisionExhausted,
                              VerificationMismatch)
from dieudonne.isocrystal import EndDecomposition, signed_block_lattices
from dieudonne.lattices import Lattice
from dieudonne.problems import Session, parse_dict
from dieudonne.signs import (SIGNED_LATTICES, SignModuleSet, SlopePairSet,
                             dual_lattice, sign_modules)

from instances import (conjugated_draws, pair_subsets,
                       sigma_twisted_instance)
from test_carriers import CORPUS, decomposition, non_split_rank6_instance


# ---------------------------------------------------------------------------
# the former body


def sign_modules_reference(decomp, Y):
    """(the sign modules of Y, the codimension of their O_minus)."""
    crystal = decomp.crystal
    ctx = crystal.ctx
    # the full pair set's block lattices and O_minus are the decomposition's
    full = Y.pairs == SlopePairSet.full(decomp.slope_data.slope_list).pairs
    if full:
        Vp, Vm = decomp.V_plus, decomp.V_minus
    else:
        Vp, Vm = signed_block_lattices(decomp.slope_data, Y.pairs)
    Vpm = dual_lattice(Vm, Vp)
    Vmp = dual_lattice(Vp, Vm)
    if not Vpm.contains(Vp):
        raise DualityMismatch("V_plus is not inside the dual of V_minus")
    if not Vmp.contains(Vm):
        raise DualityMismatch("V_minus is not inside the dual of V_plus")
    # every signed lattice lies in the full V_plus or V_minus: the
    # closures run in the block coordinates of their carriers
    plus, minus = decomp.carrier("plus"), decomp.carrier("minus")
    Op = largest_sub_dieudonne(Vp, plus)
    Om = decomp.o_minus() if full else largest_sub_dieudonne(Vm, minus)
    # O_plus and O_minus have full rank in V_plus and V_minus; a closure
    # that drops rank ran out of precision
    if Op.rank < Vp.rank or Om.rank < Vm.rank:
        raise PrecisionExhausted(
            "a stable-lattice closure lost rank at the working precision")
    Opm_dual = dual_lattice(Om, Vp) if Om.rank else Lattice.zero(
        ctx, crystal.rank ** 2)
    Omp_dual = dual_lattice(Op, Vm) if Op.rank else Lattice.zero(
        ctx, crystal.rank ** 2)
    Opm_iter = smallest_super_dieudonne(Vpm, plus)
    Omp_iter = smallest_super_dieudonne(Vmp, minus)
    if not Opm_dual.equals(Opm_iter):
        raise DualityMismatch(
            "dual of O_minus disagrees with the iterative closure of "
            "the dual block")
    if not Omp_dual.equals(Omp_iter):
        raise DualityMismatch(
            "dual of O_plus disagrees with the iterative closure of "
            "the dual block")
    if not Opm_iter.contains(Op):
        raise DualityMismatch("O_plus not inside O_plus_minus")
    if not Omp_iter.contains(Om):
        raise DualityMismatch("O_minus not inside O_minus_plus")
    c_minus = codim_of_dieudonne(Om, minus) if Om.rank else 0
    return SignModuleSet(Y=Y, V_plus=Vp, V_minus=Vm, V_plus_minus=Vpm,
                         V_minus_plus=Vmp, O_plus=Op, O_minus=Om,
                         O_plus_minus=Opm_iter,
                         O_minus_plus=Omp_iter), c_minus


# ---------------------------------------------------------------------------
# instances and comparison


def instances():
    """(name, decomposition) of the corpus entries, the conjugated draws
    and the sigma-twisted instance, all of which split integrally."""
    out = [(name, Session(load_corpus(name)).decomp()) for name in CORPUS]
    out += [(f"conjugated-{k}", decomposition(X))
            for k, X in enumerate(conjugated_draws())]
    out.append(("sigma-twisted", decomposition(sigma_twisted_instance())))
    return out


def assert_same_modules(got, ref, label):
    # equal spans, and the same canonical presentation: the reports and
    # the deformation lattice read the basis columns
    for name in SIGNED_LATTICES:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.equals(b), (label, name)
        assert (a.ambient, a.rank, a.scale, a.loss, a.cols) == \
            (b.ambient, b.rank, b.scale, b.loss, b.cols), (label, name)


def assert_owner_matches(D, Y, got, ref, ref_c, label):
    # the decomposition's accessors publish the reference's O_minus and
    # c_minus, and the sign modules hold the accessor's object
    O, c = D.o_minus(Y.pairs), D.c_minus(Y.pairs)
    assert got.O_minus is O, label
    assert (O.rank, O.scale, O.loss, O.cols) == (
        ref.O_minus.rank, ref.O_minus.scale, ref.O_minus.loss,
        ref.O_minus.cols), label
    assert c == ref_c, label


def test_assembled_sign_modules_match_the_direct_body():
    assembled = 0
    for name, D in instances():
        assert D.slope_data.is_split, name
        for Y in pair_subsets(SlopePairSet.full(D.slope_data.slope_list)):
            if not Y.pairs:
                continue
            got = sign_modules(D, Y)
            ref, ref_c = sign_modules_reference(D, Y)
            assert_same_modules(got, ref, (name, Y.pairs))
            assert_owner_matches(D, Y, got, ref, ref_c, (name, Y.pairs))
            assembled += len(Y.pairs) > 1
    # the check reaches the sums: four_slope_rank8 alone has 57 pair sets
    # of two pairs or more
    assert assembled >= 57


def test_non_split_module_takes_the_direct_path(monkeypatch):
    D = decomposition(non_split_rank6_instance())
    assert not D.slope_data.is_split

    def assembled(*args):
        raise AssertionError("a non-split module was assembled")
    monkeypatch.setattr(signs, "_assembled", assembled)
    for Y in pair_subsets(SlopePairSet.full(D.slope_data.slope_list)):
        if not Y.pairs:
            continue
        got = sign_modules(D, Y)
        ref, ref_c = sign_modules_reference(D, Y)
        for name in SIGNED_LATTICES:
            a, b = getattr(got, name), getattr(ref, name)
            assert (a.rank, a.scale, a.loss, a.cols) == \
                (b.rank, b.scale, b.loss, b.cols), (Y.pairs, name)
        assert_owner_matches(D, Y, got, ref, ref_c, Y.pairs)


def test_report_runs_four_duals_per_pair_and_none_for_sums(monkeypatch):
    doc = load_corpus("four_slope_rank8")
    problems.run(doc, problems.ANALYSES, 0)   # warm
    calls = []
    real = signs.dual_lattice

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(signs, "dual_lattice", counted)
    report = problems.run(load_corpus("four_slope_rank8"),
                          problems.ANALYSES, 0)
    assert report["all_ok"]
    # only ``dual`` builds sign modules: four duals (V_plus_minus,
    # V_minus_plus and the duals of O_minus and O_plus) for each of the
    # three slope_pairs it publishes, whose sum adds none
    assert len(calls) == 4 * len(load_corpus("four_slope_rank8").slope_pairs)


def non_split_rank6_spec():
    X = non_split_rank6_instance()
    return parse_dict({"name": "non_split_rank6", "p": 2, "n": 1,
                       "precision": 32, "degree": 9, "rank": 6,
                       "phi_matrix": [list(row) for row in X.phi.rows]})


@pytest.mark.parametrize("name", ["four_slope_rank8", "non_split_rank6"])
def test_report_builds_each_signed_pair_set_once(monkeypatch, name):
    # the signed lattices of a pair set are built once per decomposition,
    # and its two carriers and its sign modules share them
    spec = (non_split_rank6_spec if name == "non_split_rank6"
            else lambda: load_corpus(name))
    problems.run(spec(), problems.ANALYSES, 0)   # warm
    sess = Session(spec())
    full = sess.decomp().pairs
    calls = []
    real = isocrystal.signed_block_lattices

    def counted(slope_data, pairs):
        calls.append(tuple(pairs))
        return real(slope_data, pairs)
    monkeypatch.setattr(isocrystal, "signed_block_lattices", counted)
    report = problems.run(spec(), problems.ANALYSES, 0)
    assert report["analyses"]["decompose"]["module_splits_integrally"] == \
        (name == "four_slope_rank8")
    assert len(calls) == len(set(calls)) > 1
    assert full in calls
    if name == "four_slope_rank8":
        # the full set and each pair, whose sums give every larger set's
        # O_minus and signed lattices: the V_minus of the 4 subsets of two
        # or more pairs of the slices' pair set, which ``slice_monotone``
        # cuts O_minus by, are sums of their pairs' and build no more
        assert sorted(calls) == sorted([full] + [(p,) for p in full])


@pytest.mark.parametrize("what", ["O_minus", "c_minus"])
def test_full_set_is_certified_against_the_direct_closure(what):
    # a wrong part makes the full set's sum disagree with o_minus() or
    # its codimension
    D = Session(load_corpus("three_slope_rank4")).decomp()
    first = (D.pairs[0],)
    if what == "O_minus":
        O = D.o_minus(first)
        D._derived[("o_minus", first)] = Lattice.from_columns(
            O.ctx, O.ambient, O._scaled_cols(1))
    else:
        D._derived[("c_minus", first)] = D.c_minus(first) + 1
    with pytest.raises(VerificationMismatch):
        getattr(D, what.lower())()


# ---------------------------------------------------------------------------
# the one owner of O_minus and c_minus


CERTIFICATES = ("dual_lattice", "largest_sub_dieudonne",
                "smallest_super_dieudonne", "codim_of_dieudonne")


def count_certificates(monkeypatch):
    """Count the calls of the four certificate kernels under every name
    that holds one (``isocrystal`` imports them from ``core`` when it
    calls them)."""
    calls = Counter()
    for name in CERTIFICATES:
        real = getattr(signs if name == "dual_lattice" else core, name)

        def counted(*args, _name=name, _real=real, **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        for mod in (signs, core, isocrystal, strata):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_report_all_runs_every_certificate_once(monkeypatch):
    calls = count_certificates(monkeypatch)
    report = problems.run(load_corpus("four_slope_rank8"),
                          problems.ANALYSES, 0)
    assert report["all_ok"]
    # O_minus of each of the six pairs, the full set's direct closure and
    # the axioms' recomputation; for each of the three slope_pairs that
    # ``dual`` publishes, four duals, O_plus and one super-closure of each
    # sign; a codimension per pair, for the full set and for O_minus(G)
    # in strata.  ``slices`` and ``traverso`` read the decomposition's
    # O_minus and c_minus and run no certificate of their own here.
    assert calls == {"dual_lattice": 12, "largest_sub_dieudonne": 11,
                     "smallest_super_dieudonne": 6,
                     "codim_of_dieudonne": 8}


def test_deformation_analyses_close_only_their_pairs(monkeypatch):
    calls = count_certificates(monkeypatch)

    def no_sign_modules(**kw):
        raise AssertionError("a deformation analysis built sign modules")
    monkeypatch.setattr(signs, "SignModuleSet", no_sign_modules)
    spec = load_corpus("four_slope_rank8")
    report = problems.run(spec, ["connection", "trivialize", "correction"],
                          0)
    assert report["all_ok"]
    # the deformation lattice is O_minus of the three slope_pairs: one
    # closure per pair, summed
    assert len(spec.slope_pairs) == 3
    assert calls == {"largest_sub_dieudonne": 3}


def pair_set_specs():
    return {"four_slope_rank8": load_corpus("four_slope_rank8"),
            "symplectic_ordinary_c2": load_corpus("symplectic_ordinary_c2"),
            "non_split_rank6": non_split_rank6_spec()}


@pytest.mark.parametrize("name", sorted(pair_set_specs()))
def test_pair_set_analyses_build_no_sign_modules(monkeypatch, name):
    # slices, traverso, strata and polarized publish only what the
    # decomposition's accessors hold: O_minus and c_minus of a pair set
    def no_sign_modules(**kw):
        raise AssertionError("a pair-set analysis built sign modules")
    monkeypatch.setattr(signs, "SignModuleSet", no_sign_modules)
    report = problems.run(pair_set_specs()[name],
                          ["slices", "traverso", "strata", "polarized"], 0)
    assert report["all_ok"], report["analyses"]


def test_quasi_factor_codims_catches_a_wrong_pair(monkeypatch):
    D = Session(load_corpus("four_slope_rank8")).decomp()
    signs.quasi_factor_codims(D)
    wrong = D.pairs[2:3]
    real = EndDecomposition.c_minus

    def off_by_one(self, pairs=None):
        return real(self, pairs) + (pairs == wrong)
    monkeypatch.setattr(EndDecomposition, "c_minus", off_by_one)
    with pytest.raises(VerificationMismatch, match="lattice codimension"):
        signs.quasi_factor_codims(D)


def test_slice_monotone_catches_a_wrong_o_minus(monkeypatch):
    sess = Session(load_corpus("four_slope_rank8"))
    D, Y = sess.decomp(), sess.pair_set()
    D.o_minus(Y.pairs)
    real = EndDecomposition.o_minus
    # for Y1 = Y both sides would read the one wrong lattice
    for Y1 in pair_subsets(Y):
        if Y1.pairs in ((), Y.pairs):
            continue
        assert signs.slice_monotone(D, Y, Y1), Y1.pairs
        O1 = real(D, Y1.pairs)
        scaled = Lattice.from_columns(O1.ctx, O1.ambient,
                                      O1._scaled_cols(1), scale=O1.scale,
                                      loss=O1.loss)

        def wrong(self, pairs=None, _Y1=Y1.pairs, _scaled=scaled):
            return _scaled if pairs == _Y1 else real(self, pairs)
        with monkeypatch.context() as m:
            m.setattr(EndDecomposition, "o_minus", wrong)
            assert not signs.slice_monotone(D, Y, Y1), Y1.pairs


def test_slices_check_monotonicity_on_six_pairs(monkeypatch):
    # four_slope_rank8 without its slope_pairs has 6 pairs and 64 subsets:
    # the slices check the empty set, the 6 pairs, the 6 sets that omit
    # one pair and the full set, and publish what ``slice_monotone`` finds
    doc = load_corpus("four_slope_rank8").as_dict()
    del doc["slope_pairs"]
    sess = Session(parse_dict(doc))
    assert len(sess.pair_set().pairs) == 6
    calls = []
    real = problems.slice_monotone

    def counted(decomp, Y, Y1):
        calls.append(Y1.pairs)
        return real(decomp, Y, Y1)
    monkeypatch.setattr(problems, "slice_monotone", counted)
    out = problems.run_slices(sess)
    assert out["subset_monotonicity"] and out["ok"]
    assert len(calls) == len(set(calls)) == 14
    monkeypatch.setattr(problems, "slice_monotone", lambda *args: False)
    out = problems.run_slices(sess)
    assert not out["subset_monotonicity"] and not out["ok"]


@pytest.mark.parametrize("name", CORPUS)
def test_signed_minus_of_a_pair_set_is_the_sum_of_its_pairs(name):
    # on a module that splits, ``EndDecomposition.signed`` sums its pairs'
    # lattices for a set of two or more pairs that is not the full set:
    # the sum is the direct span, in the same canonical presentation and
    # processing-order echelon, on both signs
    sess = Session(load_corpus(name))
    D = sess.decomp()
    assert D.slope_data.is_split
    for Y1 in pair_subsets(sess.pair_set()):
        if len(Y1.pairs) < 2:
            continue
        direct = signed_block_lattices(D.slope_data, Y1.pairs)
        for got, want in zip(D.signed(Y1.pairs), direct):
            assert (got.cols, got.pivots, got.ech, got.loss) == \
                (want.cols, want.pivots, want.ech, want.loss), Y1.pairs


@pytest.mark.parametrize("name", ["four_slope_rank8", "three_slope_rank4",
                                  "ordinary_rank2", "example_1_7"])
def test_session_lattice_e_is_the_accessors_object(name):
    sess = Session(load_corpus(name))
    E = sess.lattice_e()
    if sess.spec.lattice_e is None:
        assert E is sess.decomp().o_minus(sess.pair_set().pairs)
    else:
        assert E.rank == len(sess.spec.lattice_e)
    assert sess.o_minus() is sess.decomp().o_minus()


def test_empty_slope_pairs_give_the_zero_lattice():
    doc = load_corpus("three_slope_rank4").as_dict()
    sess = Session(parse_dict({**doc, "slope_pairs": []}))
    E = sess.lattice_e()
    assert (E.rank, E.scale, E.loss) == (0, 0, 0)
    assert sess.decomp().c_minus(()) == 0


@pytest.mark.parametrize("pairs", ["one", "sum", "full"])
def test_closure_that_loses_rank_raises(monkeypatch, pairs):
    D = Session(load_corpus("four_slope_rank8")).decomp()
    real = core.largest_sub_dieudonne

    def lossy(V, *args, **kw):
        O = real(V, *args, **kw)
        return Lattice.from_columns(O.ctx, O.ambient, O.cols[1:],
                                    scale=O.scale, loss=O.loss)
    monkeypatch.setattr(core, "largest_sub_dieudonne", lossy)
    Y = {"one": D.pairs[:1], "sum": D.pairs[:3], "full": None}[pairs]
    with pytest.raises(PrecisionExhausted, match="lost rank"):
        D.o_minus(Y)
