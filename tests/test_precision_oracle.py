"""The precision-compatibility oracle on the corpus and on the hard inputs.

A lattice published at precision N with loss l is known modulo
p^(N - l), so computing it again at 2N and reducing modulo p^(N - l)
must give the same canonical presentation: the same rank and scale and
the same basis columns.  The objects are O_minus, the deformation lattice
E, V_plus and V_minus of every non-empty set of slope pairs, every slope
component, and O_minus(Y) of the problem's ``slope_pairs`` set.  The
check needs no reference implementation.  Besides the corpus it runs on
``non_split_rank6`` (with and without ``slope_pairs``), on
``non_split_draw`` and on the dense conjugate ``rank8_conj``, where the
lattices hold too.
"""

import itertools

import pytest

from dieudonne.cli import corpus_names, load_corpus
from dieudonne.matrix import ring
from dieudonne.problems import ProblemSpec, Session, parse_dict
from dieudonne.witt import make_context

from instances import non_split_draw, non_split_rank6, rank8_conj


def published(sess):
    """{name: lattice} of the objects the oracle compares."""
    S, D = sess.slope_data(), sess.decomp()
    out = {"O_minus": sess.o_minus(), "E": sess.lattice_e()}
    for k in range(1, len(D.pairs) + 1):
        for Y in itertools.combinations(D.pairs, k):
            out[f"V_plus {Y}"], out[f"V_minus {Y}"] = D.signed(Y)
    out.update((f"component {a}", comp) for a, comp in S.components.items())
    if sess.spec.slope_pairs is not None:
        out["O_minus(Y)"] = D.o_minus(sess.pair_set().pairs)
    return out


def reduced(lat, k):
    R, pk = ring(lat.ctx), lat.ctx.p ** k
    return [[R.rem(x, pk) for x in col] for col in lat.cols]


def non_split_doc(crystal, name, **extra):
    return dict({"name": name, "p": 2, "n": 1, "precision": crystal.ctx.N,
                 "degree": 9, "rank": crystal.rank,
                 "phi_matrix": [list(row) for row in crystal.source]},
                **extra)


def hard_inputs():
    """{name: problem spec} of the inputs off the corpus."""
    rank6 = non_split_rank6(make_context(2, 1, 32))
    docs = [non_split_doc(rank6, "non_split_rank6"),
            non_split_doc(rank6, "non_split_rank6_pairs",
                          slope_pairs=[["0", "1/3"], ["0", "1/2"]]),
            non_split_doc(non_split_draw(), "non_split_draw"),
            rank8_conj()]
    return {doc["name"]: parse_dict(doc) for doc in docs}


HARD = hard_inputs()


def assert_compatible(spec):
    N = spec.precision
    low = published(Session(spec))
    high = published(Session(ProblemSpec(
        **{**spec.as_dict(), "precision": 2 * N})))
    assert low.keys() == high.keys()
    for key, a in low.items():
        b = high[key]
        k = N - max(a.loss, b.loss)
        assert (a.rank, a.scale) == (b.rank, b.scale), key
        assert reduced(a, k) == reduced(b, k), key


@pytest.mark.parametrize("name", corpus_names())
def test_objects_at_twice_the_precision_reduce_to_those_at_n(name):
    assert_compatible(load_corpus(name))


@pytest.mark.parametrize("name", HARD)
def test_hard_inputs_at_twice_the_precision_reduce_to_those_at_n(name):
    assert_compatible(HARD[name])
