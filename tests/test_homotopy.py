import random

import pytest

from hocat import (
    Analysis,
    certify_whitehead,
    check_common_fork,
    check_fork_condition,
    check_rc_transitive,
    check_saturation,
    check_weq_axioms,
    homotopy_congruence,
    least_congruence,
    load_spec,
    r_left,
    r_left_comp,
    r_right,
    r_right_comp,
    validate_category,
)
from hocat import homotopy
from hocat.errors import ValidationError
from hocat.fixtures import category

from oracles import (
    brute_close_composition,
    brute_common_fork,
    brute_fork_condition,
    brute_intransitive_triple,
    brute_left_relation,
    brute_one_sided_relation,
    replays_homotopy,
)


def test_one_sided_relations_on_retract():
    cat, members, _r = category("f_retr")
    e, idb = cat.mor("e"), cat.mor("id:b")
    pair = (min(e, idb), max(e, idb))
    assert r_left(cat, members).distinct_pairs == {pair}   # r equalizes
    assert r_right(cat, members).distinct_pairs == {pair}  # s equalizes
    assert r_left(cat, members).pairs == {pair}  # degenerate pairs not stored


def test_one_sided_relations_empty_without_collapse():
    for name in ("f_iso", "f_span", "f_z2", "f_id"):
        cat, members, _r = category(name)
        assert r_left(cat, members).pairs == frozenset()
        assert r_right(cat, members).pairs == frozenset()


def test_one_sided_relations_match_brute_force(mixed_corpus, split_corpus):
    for cat, members, _doc in mixed_corpus + split_corpus:
        session = Analysis(cat, members)
        assert session.left.pairs == brute_left_relation(cat, members, "left")
        assert session.right.pairs == brute_left_relation(cat, members, "right")


def test_composition_closure_matches_package_closure(split_corpus):
    for cat, members, _doc in split_corpus[:100]:
        assert r_left_comp(cat, members).distinct_pairs == \
            brute_close_composition(cat, r_left(cat, members).pairs)
        assert r_right_comp(cat, members).distinct_pairs == \
            brute_close_composition(cat, r_right(cat, members).pairs)


def test_homotopy_congruence_fixture_classes():
    cat, members, _r = category("f_retr")
    cong = homotopy_congruence(cat, members)
    e, idb = cat.mor("e"), cat.mor("id:b")
    assert cong.nonsingleton_classes() == ((min(e, idb), max(e, idb)),)
    cat2, members2, _r2 = category("f_span")
    assert homotopy_congruence(cat2, members2).nonsingleton_classes() == ()


def test_fork_condition_witnesses_replay():
    cat, members, _r = category("f_retr")
    res = check_fork_condition(cat, members, "left")
    assert res.ok and res.counterexample is None
    for (f, g), wit in res.witnesses.items():
        fork = wit.fork
        assert fork.base in members and fork.collapse in members
        assert cat.table[fork.collapse][fork.legs[0]] == fork.base
        assert cat.table[fork.collapse][fork.legs[1]] == fork.base
        assert cat.table[wit.mediator][fork.legs[0]] == f
        assert cat.table[wit.mediator][fork.legs[1]] == g


def test_fork_condition_right_side_mirrors():
    cat, members, _r = category("f_retr")
    res = check_fork_condition(cat, members, "right")
    assert res.ok
    for wit in res.witnesses.values():
        assert wit.side == "right"
    with pytest.raises(ValidationError):
        check_fork_condition(cat, members, "middle")


def test_common_fork_needs_shared_support():
    """One fork must mediate every ordered pair, diagonal included; the
    retract has none covering (id,id) and (id,e) at once."""
    cat, members, _r = category("f_retr")
    res = check_common_fork(cat, members, "left")
    assert not res.ok
    p1, p2 = res.counterexample
    assert p1 != p2
    for name in ("f_iso", "f_z2", "f_span", "f_id"):
        cat2, members2, _r2 = category(name)
        assert check_common_fork(cat2, members2, "left").ok


def test_rc_transitive_on_fixtures():
    for name in ("f_retr", "f_iso", "f_z2", "f_span"):
        cat, members, _r = category(name)
        ok, counter = check_rc_transitive(cat, members, "left")
        assert ok and counter is None


def test_rc_transitive_matches_brute_force(mixed_corpus, split_corpus):
    """Each side's transitivity verdict and triple agree with nested
    loops over the brute-force closed relation."""
    failures = 0
    for cat, members, _doc in mixed_corpus + split_corpus:
        session = Analysis(cat, members)
        for side in ("left", "right"):
            triple = brute_intransitive_triple(brute_one_sided_relation(cat, members, side))
            assert session.rc_transitive(side) == (triple is None, triple)
            failures += triple is not None
    assert failures >= 1


def test_fork_index_tells_colliding_sets_apart(monkeypatch, mixed_corpus, split_corpus):
    """The fork index recognizes a mediated set again by its size and
    its pairs' masks, not by its hash alone: with every set hashing
    alike, both fork checks give the same answers and witnesses."""
    instances = mixed_corpus[:60] + split_corpus[:60]
    want = [(s.fork_condition(side), s.common_fork(side))
            for s in (Analysis(cat, members) for cat, members, _doc in instances)
            for side in ("left", "right")]
    monkeypatch.setattr(homotopy, "hash", lambda obj: 0, raising=False)
    got = [(s.fork_condition(side), s.common_fork(side))
           for s in (Analysis(cat, members) for cat, members, _doc in instances)
           for side in ("left", "right")]
    assert got == want


def test_whitehead_certified_on_retract():
    cat, members, _r = category("f_retr")
    res = certify_whitehead(cat, members)
    assert res.status == "certified" and res.certified
    cert = res.certificate
    s, r, e = cat.mor("s"), cat.mor("r"), cat.mor("e")
    assert cert.inverse_table[s] == r
    assert cert.inverse_table[r] == s
    # e inverts to the lowest-index inverse in its own class
    assert cert.inverse_table[e] in (cat.mor("id:b"), e)
    assert cert.inverse_table[e] == min(cat.mor("id:b"), e)
    left, right = cert.basis
    assert left.pairs == r_left(cat, members).pairs
    assert right.pairs == r_right(cat, members).pairs


def test_whitehead_failed_on_span():
    cat, members, _r = category("f_span")
    res = certify_whitehead(cat, members)
    assert res.status == "failed" and not res.certified
    assert res.certificate is None
    wit = res.witness
    assert (cat.obj_name(wit.source), cat.obj_name(wit.target)) == ("a", "b")
    assert not res.split_generation.generated


def inconclusive_doc():
    """Constant maps plus one non-split injection u as the only member.

    u equalizes nothing (injective and surjective on the carriers), so
    the homotopy relation is discrete; u is not split, and every
    hom-set is inhabited, so no emptiness witness exists either.
    """
    return {
        "objects": ["a", "b"],
        "morphisms": [
            {"name": "p", "dom": "a", "cod": "a"},
            {"name": "c", "dom": "a", "cod": "b"},
            {"name": "q", "dom": "b", "cod": "b"},
            {"name": "v", "dom": "b", "cod": "a"},
            {"name": "u", "dom": "a", "cod": "b"},
        ],
        "composition": [
            {"after": "p", "before": "p", "equals": "p"},
            {"after": "u", "before": "p", "equals": "c"},
            {"after": "c", "before": "p", "equals": "c"},
            {"after": "q", "before": "u", "equals": "c"},
            {"after": "v", "before": "u", "equals": "p"},
            {"after": "q", "before": "c", "equals": "c"},
            {"after": "v", "before": "c", "equals": "p"},
            {"after": "q", "before": "q", "equals": "q"},
            {"after": "v", "before": "q", "equals": "v"},
            {"after": "p", "before": "v", "equals": "v"},
            {"after": "u", "before": "v", "equals": "q"},
            {"after": "c", "before": "v", "equals": "q"},
            {"after": "u", "before": "id:a", "equals": "u"},
            {"after": "id:b", "before": "u", "equals": "u"},
        ],
        "weak_equivalences": ["u"],
    }


def test_whitehead_inconclusive_without_witness():
    cat = validate_category(load_spec(inconclusive_doc()))
    fam = check_weq_axioms(cat, ["u"])
    assert fam.report.axioms_ok
    res = certify_whitehead(cat, ["u"])
    assert res.status == "inconclusive"
    assert res.witness is None and res.certificate is None
    assert res.congruence.nonsingleton_classes() == ()
    assert res.split_generation.missing == cat.mor("u")


def test_saturation_fixture_verdicts():
    cat, members, _r = category("f_retr")
    cert = certify_whitehead(cat, members).certificate
    rep = check_saturation(cat, members, cert)
    assert rep.saturated and rep.predicted
    assert rep.violations == ()
    assert rep.split_generated and rep.weak_invertibility
    assert rep.fork_left and rep.fork_right


def test_saturation_rejected_by_involution():
    """t is invertible in the quotient yet not a member; the sufficient
    conditions must also come out false so the guard stays quiet."""
    cat, members, _r = category("f_z2")
    cert = certify_whitehead(cat, members).certificate
    rep = check_saturation(cat, members, cert)
    assert not rep.saturated
    assert rep.violations == (cat.mor("t"),)
    assert not rep.predicted
    assert not rep.weak_invertibility


def test_certify_requires_axioms():
    cat, _members, _r = category("f_iso")
    with pytest.raises(ValidationError):
        certify_whitehead(cat, ["u"])  # two-of-three fails for {u}


def test_fork_checks_match_brute_force(mixed_corpus, split_corpus):
    """Both fork checks agree with the definitions, failures included,
    and every witness they return replays."""
    fork_failures = common_failures = 0
    for cat, members, _doc in mixed_corpus + split_corpus:
        for side in ("left", "right"):
            res = check_fork_condition(cat, members, side)
            assert (res.ok, res.counterexample) == brute_fork_condition(cat, members, side)
            rel = brute_one_sided_relation(cat, members, side)
            if res.ok:
                assert set(res.witnesses) == rel
            for (f, g), wit in res.witnesses.items():
                assert (wit.f, wit.g) == (f, g) and (f, g) in rel
                assert replays_homotopy(cat, members, side, wit)
            common = check_common_fork(cat, members, side)
            assert (common.ok, common.counterexample) == \
                brute_common_fork(cat, members, side)
            fork_failures += not res.ok
            common_failures += not common.ok
    assert fork_failures >= 1 and common_failures >= 1
