"""Randomized invariants tying the fast paths to first-principles checks."""

from hocat import (
    bounded_equiv,
    check_split_generated,
    check_weq_axioms,
    homotopy_congruence,
    make_zigzag,
    replay,
)
from hocat.zigzag import CANCEL, COMPOSE, FWD, OMIT

from oracles import raw_reachable, single_arrow_relation


def test_equivalence_traces_stay_within_raw_moves(split_corpus):
    """A certified trace must replay move by move from the raw rules."""
    replayed = 0
    for cat, members, _doc in split_corpus:
        cong = homotopy_congruence(cat, members)
        for f, g in cat.parallel_pairs():
            if f >= g or not cong.related(f, g):
                continue
            z1 = make_zigzag(cat, members, cat.dom(f), [(f, FWD)])
            z2 = make_zigzag(cat, members, cat.dom(g), [(g, FWD)])
            res = bounded_equiv(cat, members, z1, z2, budget=8)
            assert res.equivalent, "related pair not certified at default budget"
            assert replay(cat, members, res.trace) == z2
            for mv in res.trace.moves:
                assert mv.kind in (OMIT, COMPOSE, CANCEL)
            replayed += 1
    assert replayed >= 40


def test_pair_mode_sound_against_raw_search(tiny_corpus):
    """At tiny budgets the macro search agrees with plain breadth first search.

    Soundness in both directions on single-arrow zigzags: whatever pair()
    certifies lies inside the raw ball of radius 2*budget, and whatever
    the raw ball of radius budget contains, pair() certifies.
    """
    for cat, members, _doc in tiny_corpus:
        for budget in (1, 2):
            for f, g in cat.parallel_pairs():
                z1 = make_zigzag(cat, members, cat.dom(f), [(f, FWD)])
                z2 = make_zigzag(cat, members, cat.dom(g), [(g, FWD)])
                res = bounded_equiv(cat, members, z1, z2, budget)
                ball = raw_reachable(cat, members, z1, budget)
                wide = raw_reachable(cat, members, z1, 2 * budget)
                if res.equivalent:
                    assert z2 in wide
                    assert len(res.trace.moves) <= 2 * budget
                if z2 in ball:
                    assert res.equivalent


def test_single_arrow_relation_matches_congruence(split_corpus):
    """The bulk zigzag relation at the default budget is the congruence."""
    mismatches = []
    for cat, members, doc in split_corpus:
        rel = single_arrow_relation(cat, members, 8)
        cong = homotopy_congruence(cat, members)
        want = {(f, g) for f, g in cat.parallel_pairs() if cong.related(f, g)}
        if rel != want:
            mismatches.append(doc)
    assert not mismatches


def test_generated_families_close_under_two_of_three(mixed_corpus):
    for cat, members, _doc in mixed_corpus:
        for g in range(len(cat.morphisms)):
            for f in cat.incoming[cat.dom(g)]:
                gf = cat.table[g][f]
                flags = (f in members) + (g in members) + (gf in members)
                assert flags != 2, "family is not two-of-three closed"


def test_split_corpus_certificates_recompose(split_corpus):
    for cat, members, _doc in split_corpus[:60]:
        fam = check_weq_axioms(cat, members)
        cert = check_split_generated(fam).certificate
        for w, deco in cert.decompositions.items():
            cur = deco[0]
            for nxt in deco[1:]:
                cur = cat.table[nxt][cur]
            assert cur == w
        for w, inv, kind in cert.split_weqs:
            if kind == "section":
                assert cat.table[inv][w] == cat.identity[cat.dom(w)]
            else:
                assert cat.table[w][inv] == cat.identity[cat.cod(w)]
