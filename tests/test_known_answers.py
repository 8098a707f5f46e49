"""Eliminations skipped because their answer is known, checked against
the bodies that ran them.

- ``intersect`` returns an operand that the other contains, rebuilt at
  the larger scale and loss, without the kernel over both generating
  sets.  ``intersect_reference`` is the former body (that kernel, always)
  and must give the same ``cols``, ``pivots``, ``scale``, ``loss`` and
  ``rank``: on seeded lattices (contained in either order, equal, at
  unequal scales and losses, neither containing the other, zero), on
  every pair that ``report-all`` intersects on the corpus, and on the
  signed lattices of ``random_split_instance`` and
  ``instances.conjugated_draws``.  A contained operand at the
  intersection's own scale and loss whose echelon is its basis is
  returned as it is: on the corpus, ``rank8_conj`` and the conjugated
  draws each such operand equals its rebuild in ``cols``, ``pivots``,
  ``ech`` and ``ech_pivots``, and one whose echelon differs is rebuilt.
- The n = 1 ring ops skip zero entries: ``axpy``, ``scale`` and
  ``vanishes`` against their former bodies.  ``scale`` takes any ints,
  ``axpy`` any multiplier and any x; the ``y`` of ``axpy`` and the
  column of ``vanishes`` are raw entries, as every caller passes them.
- ``nu_image`` is computed once per tangent space and presentation.
- ``SlopeData.factor`` of an integral projector sum is its image, and
  equals ``_projector_fixed_lattice`` on the split corpus entries.
"""

import itertools
import random

import pytest

from dieudonne import core, lattices, signs, strata
from dieudonne.cli import load_corpus
from dieudonne.core import TangentSpace, nu_image
from dieudonne.isocrystal import (SemilinearMap, _projector_fixed_lattice,
                                  end_decompose, slope_split)
from dieudonne.lattices import Lattice, intersect, kernel_span
from dieudonne.matrix import ring
from dieudonne.problems import ANALYSES, RUNNERS, Session, parse_dict, run
from dieudonne.witt import make_context

from instances import conjugated_draws, random_split_instance, rank8_conj

RINGS = [(2, 1, 12), (3, 1, 10), (5, 1, 9), (2, 3, 12), (3, 3, 10)]
CORPUS = ["ordinary_rank2", "supersingular_rank2", "example_1_7",
          "three_slope_rank4", "four_slope_rank8", "elliptic_polarized",
          "symplectic_ordinary_c2"]


# ---------------------------------------------------------------------------
# the former bodies


def intersect_reference(l1, l2):
    """Intersection via the kernel of the difference map on the direct
    sum."""
    if l1.ambient != l2.ambient:
        raise ValueError("ambient ranks differ")
    ctx = l1.ctx
    loss = max(l1.loss, l2.loss)
    neff = ctx.N - loss
    s, c1, c2 = lattices._unify_scales(l1, l2)
    if not c1 or not c2:
        return Lattice.zero(ctx, l1.ambient)
    neg = ring(ctx).neg
    stacked = c1 + [list(map(neg, c)) for c in c2]
    gens = kernel_span(ctx, stacked, c1, neff, l1.ambient)
    return Lattice.from_columns(ctx, l1.ambient, gens, scale=s, loss=loss)


def vanishes_reference(R, col, k):
    pk = R.p ** k
    return not any(x % pk for x in col)


def axpy_reference(R, y, q, x):
    return [(a - q * b) % R.pN for a, b in zip(y, x)]


def scale_reference(R, x, u):
    if u == 1:
        return list(x)
    return [a * u % R.pN for a in x]


# ---------------------------------------------------------------------------
# intersect


def presentation(L):
    return L.cols, L.pivots, L.scale, L.loss, L.rank


def assert_intersections_match(l1, l2):
    got = intersect(l1, l2)
    assert presentation(got) == presentation(intersect_reference(l1, l2))
    return got


def random_columns(rng, ctx, r, k):
    p = ctx.p
    return [[rng.choice([0, 0, 1, -1, p, p * p]) * rng.randrange(-9, 10)
             + (rng.randrange(-20, 20) if rng.random() < 0.5 else 0)
             for _ in range(r)] for _ in range(k)]


def random_lattice(rng, ctx, r, k, scale=0, loss=0):
    cols = ring(ctx).raw_mat(random_columns(rng, ctx, r, k))
    return Lattice.from_columns(ctx, r, cols, scale=scale, loss=loss)


def sublattice(rng, L, k, scale, loss):
    """A lattice inside L at the given scale: p-multiples of random
    combinations of L's columns, shifted past the scale gap."""
    ctx = L.ctx
    R = ring(ctx)
    lift = max(0, scale - L.scale)
    cols = []
    for _ in range(k):
        col = [R.zero] * L.ambient
        for c in L.cols:
            q = R.of_int(rng.randrange(-3, 4) * ctx.p ** rng.randrange(2))
            col = R.axpy(col, q, c)
        cols.append(R.scale(col, R.of_int(ctx.p ** (lift
                                                    + rng.randrange(2)))))
    return Lattice.from_columns(ctx, L.ambient, cols, scale=scale, loss=loss)


@pytest.mark.parametrize("p,n,N", RINGS)
def test_contained_operands_in_either_order(p, n, N):
    rng = random.Random(p * 100 + n)
    ctx = make_context(p, n, N)
    for _ in range(12):
        r = rng.randint(2, 5)
        big = random_lattice(rng, ctx, r, rng.randint(1, r + 1))
        small = sublattice(rng, big, rng.randint(1, r), big.scale, big.loss)
        assert big.contains(small)
        for l1, l2 in ((big, small), (small, big)):
            got = assert_intersections_match(l1, l2)
            assert got.equals(small)


@pytest.mark.parametrize("p,n,N", RINGS)
def test_equal_lattices(p, n, N):
    rng = random.Random(p * 101 + n)
    ctx = make_context(p, n, N)
    for _ in range(8):
        r = rng.randint(1, 5)
        L = random_lattice(rng, ctx, r, rng.randint(1, r + 1))
        # the same span from other generators
        twin = Lattice.from_columns(ctx, r, list(reversed(L.cols))
                                    + [list(c) for c in L.cols])
        assert_intersections_match(L, L)
        assert_intersections_match(L, twin)
        assert_intersections_match(twin, L)


@pytest.mark.parametrize("p,n,N", RINGS)
def test_unequal_scales_and_losses(p, n, N):
    rng = random.Random(p * 102 + n)
    ctx = make_context(p, n, N)
    for _ in range(12):
        r = rng.randint(2, 5)
        big = random_lattice(rng, ctx, r, rng.randint(1, r + 1),
                             scale=rng.randrange(3), loss=rng.randrange(3))
        small = sublattice(rng, big, rng.randint(1, r), rng.randrange(4),
                           rng.randrange(3))
        assert big.contains(small)
        for l1, l2 in ((big, small), (small, big)):
            assert_intersections_match(l1, l2)


@pytest.mark.parametrize("p,n,N", RINGS)
def test_neither_contains_the_other_and_zero(p, n, N):
    rng = random.Random(p * 103 + n)
    ctx = make_context(p, n, N)
    crossed = 0
    for _ in range(12):
        r = rng.randint(2, 5)
        l1 = random_lattice(rng, ctx, r, rng.randint(1, r),
                            scale=rng.randrange(2), loss=rng.randrange(2))
        l2 = random_lattice(rng, ctx, r, rng.randint(1, r),
                            scale=rng.randrange(2), loss=rng.randrange(2))
        crossed += not (l1.contains(l2) or l2.contains(l1))
        assert_intersections_match(l1, l2)
        assert_intersections_match(l2, l1)
        zero = Lattice.zero(ctx, r)
        assert_intersections_match(l1, zero)
        assert_intersections_match(zero, l1)
    assert crossed >= 6


def test_the_kernel_path_still_runs_when_neither_contains(monkeypatch):
    ctx = make_context(5, 1, 9)
    l1 = Lattice.from_columns(ctx, 2, [[1, 0]])
    l2 = Lattice.from_columns(ctx, 2, [[1, 5]])
    calls = []
    real = lattices.kernel_span

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lattices, "kernel_span", counted)
    got = intersect(l1, l2)
    assert len(calls) == 1
    assert presentation(got) == presentation(intersect_reference(l1, l2))
    calls.clear()
    assert intersect(Lattice.standard(ctx, 2), l2).equals(l2)
    assert calls == []


def recorded_intersections(monkeypatch, spec):
    """Every pair that ``report-all`` intersects on a problem."""
    pairs = []

    def recording(l1, l2):
        pairs.append((l1, l2))
        return intersect(l1, l2)

    for mod in (core, signs, strata):
        monkeypatch.setattr(mod, "intersect", recording)
    sess = Session(spec)
    for runner in RUNNERS.values():
        runner(sess)
    return pairs


@pytest.mark.parametrize("name", CORPUS)
def test_report_all_pairs_on_the_corpus(monkeypatch, name):
    pairs = recorded_intersections(monkeypatch, load_corpus(name))
    monkeypatch.undo()
    assert pairs or name in ("ordinary_rank2", "supersingular_rank2")
    for l1, l2 in pairs:
        assert_intersections_match(l1, l2)


def test_the_strata_cuts_of_gl_are_containments(monkeypatch):
    # N_G(mu), V_-(G) and O_-(G) of the default group GL(M) are
    # containments, so none of them runs the kernel
    pairs = recorded_intersections(monkeypatch,
                                   load_corpus("four_slope_rank8"))
    monkeypatch.undo()
    held = [l1.contains(l2) or l2.contains(l1) for l1, l2 in pairs]
    assert sum(held) >= 4


def signed_lattices(decomp):
    out = [decomp.V_plus, decomp.V_minus, decomp.o_minus(),
           Lattice.standard(decomp.crystal.ctx, decomp.crystal.rank ** 2)]
    for pair in decomp.pairs[:3]:
        out.extend(decomp.signed((pair,)))
        out.append(decomp.o_minus((pair,)))
    return out


def instance_decompositions():
    rng = random.Random(11)
    out = [(f"random-split-{k}",
            end_decompose(slope_split(random_split_instance(rng))))
           for k in range(4)]
    out += [(f"conjugated-{k}", end_decompose(slope_split(X)))
            for k, X in enumerate(conjugated_draws()[:4])]
    return out


@pytest.mark.parametrize("name,decomp", instance_decompositions())
def test_signed_lattices_of_split_and_conjugated_instances(name, decomp):
    lats = signed_lattices(decomp)
    for l1, l2 in itertools.combinations(lats, 2):
        assert_intersections_match(l1, l2)
        assert_intersections_match(l2, l1)


def rebuilt(L):
    """The lattice rebuilt from its canonical columns at its own scale and
    loss."""
    return Lattice.from_columns(L.ctx, L.ambient, L.cols, scale=L.scale,
                                loss=L.loss)


def echelons(L):
    return L.cols, L.pivots, L.ech, L.ech_pivots


def returned_operands(pairs):
    """How many of the intersections return an operand itself; each such
    operand must equal its rebuild in ``cols``, ``pivots``, ``ech`` and
    ``ech_pivots``, the presentation the rebuild returned before."""
    kept = 0
    for l1, l2 in pairs:
        got = intersect(l1, l2)
        if got is l1 or got is l2:
            assert echelons(rebuilt(got)) == echelons(got)
            kept += 1
    return kept


@pytest.mark.parametrize("name", CORPUS + ["rank8_conj"])
def test_a_contained_operand_is_returned_as_it_is(monkeypatch, name):
    # rank8_conj fails its trivialize analysis, so the pairs are recorded
    # through ``run``, which reports that failure
    spec = (parse_dict(rank8_conj()) if name == "rank8_conj"
            else load_corpus(name))
    pairs = []

    def recording(l1, l2):
        pairs.append((l1, l2))
        return intersect(l1, l2)

    for mod in (core, signs, strata):
        monkeypatch.setattr(mod, "intersect", recording)
    run(spec, ANALYSES, 0)
    monkeypatch.undo()
    kept = returned_operands(pairs)
    assert kept or name in ("ordinary_rank2", "supersingular_rank2")


def test_contained_signed_lattices_of_the_conjugated_draws():
    kept = 0
    for X in conjugated_draws():
        lats = signed_lattices(end_decompose(slope_split(X)))
        kept += returned_operands(itertools.permutations(lats, 2))
    assert kept


def test_an_operand_whose_echelon_is_not_its_basis_is_rebuilt():
    # the cross reduction turns the echelon column (1, 7) into the basis
    # column (1, 2), so the rebuild from the basis has another echelon,
    # and the operand itself would change every solve against it
    ctx = make_context(5, 1, 9)
    L = Lattice.from_columns(ctx, 2, [[1, 7], [0, 5]])
    M = Lattice.standard(ctx, 2)
    assert L.cols == ((1, 2), (0, 5)) and L.ech == ((1, 7), (0, 5))
    got = intersect(L, M)
    assert got is not L and echelons(got) == echelons(rebuilt(L))
    assert intersect(M, got) is got


# ---------------------------------------------------------------------------
# the n = 1 ring ops


def seeded_ints(rng, pN, k):
    """Raw entries with zeros among them, and out-of-range and negative
    ints."""
    pool = [0, 0, 0, 1, pN - 1, pN, -pN, 2 * pN + 3, -1, -7]
    return [rng.choice(pool) if rng.random() < 0.4
            else rng.randrange(-2 * pN, 3 * pN) for _ in range(k)]


def raw_entries(rng, pN, k):
    return [0 if rng.random() < 0.4 else rng.randrange(pN) for _ in range(k)]


@pytest.mark.parametrize("p,N", [(2, 12), (3, 10), (5, 9), (5, 48)])
def test_int_ring_ops_match_their_former_bodies(p, N):
    rng = random.Random(p * N)
    R = ring(make_context(p, 1, N))
    pN = R.pN
    for _ in range(200):
        k = rng.randint(0, 9)
        col = seeded_ints(rng, pN, k)
        for u in (1, 0, rng.randrange(pN), rng.randrange(-pN, 2 * pN)):
            assert R.scale(col, u) == scale_reference(R, col, u)
        y = raw_entries(rng, pN, k)
        for q in (0, 1, rng.randrange(pN), rng.randrange(-pN, 2 * pN)):
            assert R.axpy(y, q, col) == axpy_reference(R, y, q, col)
        raw = raw_entries(rng, pN, k)
        vanishing = [0 if x == 0 else x * p ** (N - 1) % pN for x in raw]
        for v in (raw, vanishing, [0] * k):
            for j in (0, 1, N - 1, N, N + 2):
                assert R.vanishes(v, j) == vanishes_reference(R, v, j)


# ---------------------------------------------------------------------------
# the nu memo


def test_equal_presentations_are_imaged_once(monkeypatch):
    sess = Session(load_corpus("four_slope_rank8"))
    T = TangentSpace.of(sess.crystal())
    O = sess.o_minus()
    calls = []
    real = TangentSpace.nu_matrix

    def counted(self, rows):
        calls.append(1)
        return real(self, rows)

    monkeypatch.setattr(TangentSpace, "nu_matrix", counted)
    T.images.clear()
    first = nu_image(O, T)
    once = len(calls)
    assert once == O.rank
    twin = Lattice(O.ctx, O.ambient, tuple(O.cols), O.pivots, O.scale,
                   O.loss, O.ech, O.ech_pivots)
    assert twin is not O
    assert nu_image(twin, T) is first
    assert nu_image(O, T) is first
    assert len(calls) == once
    # a different loss or scale is another presentation
    lossy = O.with_loss(O.loss + 1)
    assert nu_image(lossy, T) == first
    assert len(calls) == 2 * once
    scaled = Lattice.from_columns(O.ctx, O.ambient, O._scaled_cols(1),
                                  scale=1, loss=O.loss)
    assert nu_image(scaled, T) == first
    assert len(calls) > 2 * once


def test_the_memo_holds_no_crystal():
    sess = Session(load_corpus("three_slope_rank4"))
    T = sess.tangent()
    nu_image(sess.o_minus(), T)
    assert T.images
    for key, (dim, ech) in T.images.items():
        cols, scale, loss = key
        assert all(type(c) is tuple for c in cols)
        assert type(scale) is int and type(loss) is int
        assert type(dim) is int and all(type(v) is list for v in ech)


# ---------------------------------------------------------------------------
# SlopeData.factor


def fixed_lattice_reference(S, slopes, dual):
    e = S.projectors[slopes[0]]
    for a in slopes[1:]:
        e = e.add(S.projectors[a])
    if dual:
        e = SemilinearMap(e.ctx, list(zip(*e.rows)),
                          denominator=e.denominator, loss=e.loss)
    return _projector_fixed_lattice(e.ctx, e)


@pytest.mark.parametrize("name", CORPUS)
def test_factor_is_the_fixed_lattice_on_split_entries(name):
    S = Session(load_corpus(name)).slope_data()
    assert S.is_split
    slopes = sorted(S.projectors)
    for k in range(1, len(slopes) + 1):
        for subset in itertools.combinations(slopes, k):
            for dual in (False, True):
                want = fixed_lattice_reference(S, subset, dual)
                assert presentation(S.factor(subset, dual)) == \
                    presentation(want)
