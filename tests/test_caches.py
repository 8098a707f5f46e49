"""The derived-data caches of a crystal, its slope data and its End(M)
decomposition hold no reference back to the crystal.

``FIsocrystal._derived``, ``SlopeData._derived`` and
``EndDecomposition._derived`` are filled by the analyses.  A cached value
that led back to the crystal would close a reference cycle through the
cache, and a walk over an object's fields that has no guard against
cycles, such as the span-input keys of the benchmark's tracer, would then
not end.  Data that hold their crystal (a ``strata.GroupData``) are kept
on the ``problems.Session`` instead.
"""

from fractions import Fraction

import pytest

from dieudonne import problems
from dieudonne.cli import corpus_names, load_corpus


def reaches(value, target):
    """Whether the fields of ``value``, followed through containers,
    slots and instance dicts, lead to ``target``."""
    seen = set()
    stack = [value]
    while stack:
        x = stack.pop()
        if x is target:
            return True
        if x is None or isinstance(x, (bool, int, str, Fraction)) \
                or id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, dict):
            stack.extend(x.keys())
            stack.extend(x.values())
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack.extend(x)
        else:
            for cls in type(x).__mro__:
                slots = getattr(cls, "__slots__", ())
                for name in [slots] if isinstance(slots, str) else slots:
                    stack.append(getattr(x, name, None))
            stack.extend(getattr(x, "__dict__", {}).values())
    return False


def test_reaches_follows_slots_and_containers():
    sess = problems.Session(load_corpus("ordinary_rank2"))
    X = sess.crystal()
    assert reaches({"k": [(1, X)]}, X)
    assert reaches(sess, X)
    assert reaches(sess.slope_data(), X)
    assert not reaches(X.M, X)


@pytest.mark.parametrize("name", corpus_names())
def test_cached_data_lead_back_to_no_crystal(name, monkeypatch):
    sessions = []

    class Recording(problems.Session):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            sessions.append(self)

    monkeypatch.setattr(problems, "Session", Recording)
    problems.run(load_corpus(name), problems.ANALYSES, 0)
    (sess,) = sessions
    X = sess.crystal()
    owners = (X, sess.slope_data(), sess.decomp())
    assert owners[0]._derived and owners[2]._derived
    for owner in owners:
        for key, value in owner._derived.items():
            assert not reaches(value, X), (type(owner).__name__, key)
