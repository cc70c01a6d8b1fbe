"""Every monoid of order at most 4, as a one-object category.

25 of them, all of order 4, act faithfully on no set of at most 3
points, so no category of functions between such sets contains them.  Each is judged, with
every family that passes the axioms, by the brute-force oracles.
"""

import collections

import pytest

from hocat import Analysis

from gencat import monoid_corpus, monoid_tables
from oracles import (
    brute_common_fork,
    brute_fork_condition,
    brute_fork_witnesses,
    brute_intransitive_triple,
    brute_least_congruence,
    brute_left_relation,
    brute_one_sided_relation,
    brute_sigma,
    parallel_pairs,
)

SIDES = ("left", "right")


@pytest.fixture(scope="module")
def monoids():
    return monoid_corpus(4)


def test_monoid_counts():
    """1, 2, 7 and 35 monoids of orders 1 to 4, up to isomorphism."""
    assert [len(monoid_tables(order)) for order in range(1, 5)] == [1, 2, 7, 35]


def test_monoid_corpus_has_every_monoid(monoids):
    tables = {cat for cat, _members, _doc in monoids}
    assert len(tables) == 1 + 2 + 7 + 35
    assert all(len(cat.objects) == 1 for cat in tables)
    # the unit alone passes the axioms on every monoid
    assert sum(len(members) == 1 for _cat, members, _doc in monoids) == len(tables)


def test_monoids_match_the_oracles(monoids):
    """Relations, congruence, fork checks, witnesses and transitivity
    agree with the definitions, and so do Whitehead and saturation,
    which would raise if the paper's theorems were contradicted."""
    seen = collections.Counter()
    for cat, members, doc in monoids:
        session = Analysis(cat, members)
        seeds = []
        for side in SIDES:
            seeds += sorted(brute_left_relation(cat, members, side))
            assert getattr(session, side).pairs == brute_left_relation(cat, members, side)
            rel = brute_one_sided_relation(cat, members, side)
            assert session.closed(side)[1].distinct_pairs == rel, (doc, side)
            fork = brute_fork_condition(cat, members, side)
            assert (session.fork_condition(side).ok,
                    session.fork_condition(side).counterexample) == fork, (doc, side)
            assert list(session.fork_witnesses(side).items()) == \
                list(brute_fork_witnesses(cat, members, side, fork[1]).items()), (doc, side)
            common = session.common_fork(side)
            assert (common.ok, common.counterexample) == \
                brute_common_fork(cat, members, side), (doc, side)
            triple = brute_intransitive_triple(rel)
            assert session.rc_transitive(side) == (triple is None, triple), (doc, side)
            seen["fork fails"] += not fork[0]
            seen["intransitive"] += triple is not None
        rep = brute_least_congruence(cat, seeds)
        for f, g in parallel_pairs(cat):
            assert session.congruence.related(f, g) == (rep[f] == rep[g]), doc
        sigma = brute_sigma(cat, rep)
        assert session.whitehead.certified == (members <= sigma), doc
        assert session.saturation.violations == tuple(sorted(sigma - members)), doc
        seen["unsaturated"] += bool(sigma - members)
        seen["predicted"] += session.saturation.predicted
    assert min(seen[k] for k in ("fork fails", "intransitive", "unsaturated", "predicted")) > 0
