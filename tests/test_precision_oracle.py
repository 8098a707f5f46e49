"""The precision-compatibility oracle on the corpus.

A lattice published at precision N with loss l is known modulo
p^(N - l), so computing it again at 2N and reducing modulo p^(N - l)
must give the same canonical presentation: the same rank and scale and
the same basis columns.  The objects are O_minus, the deformation lattice
E, V_minus, every slope component, and O_minus(Y) of the problem's
``slope_pairs`` set.  The check needs no reference implementation.  The
dense conjugates of the corpus entries are left out: they publish wrong
last digits (ROADMAP item 1).
"""

import pytest

from dieudonne.cli import corpus_names, load_corpus
from dieudonne.matrix import ring
from dieudonne.problems import ProblemSpec, Session


def published(sess):
    """{name: lattice} of the objects the oracle compares."""
    S, D = sess.slope_data(), sess.decomp()
    out = {"O_minus": sess.o_minus(), "E": sess.lattice_e(),
           "V_minus": D.V_minus}
    out.update((f"component {a}", comp) for a, comp in S.components.items())
    if sess.spec.slope_pairs is not None:
        out["O_minus(Y)"] = D.o_minus(sess.pair_set().pairs)
    return out


def reduced(lat, k):
    R, pk = ring(lat.ctx), lat.ctx.p ** k
    return [[R.rem(x, pk) for x in col] for col in lat.cols]


@pytest.mark.parametrize("name", corpus_names())
def test_objects_at_twice_the_precision_reduce_to_those_at_n(name):
    spec = load_corpus(name)
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
