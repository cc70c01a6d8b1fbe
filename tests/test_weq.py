import random

import pytest

from hocat import check_split_generated, check_weq_axioms, find_splits
from hocat.errors import FormatError, ValidationError
from hocat.fixtures import category

from gencat import gen_any_instance
from oracles import brute_two_of_three


def test_axioms_pass_on_split_retract():
    cat, members, _r = category("f_retr")
    fam = check_weq_axioms(cat, members)
    assert fam.report.axioms_ok
    assert fam.report.two_of_three_ok
    assert fam.report.weak_invertibility_ok
    assert cat.mor("e") in fam.members and cat.mor("id:a") in fam.members
    assert fam.report.inserted_identities == ()  # members came resolved
    bare = check_weq_axioms(cat, ["s", "r", "e"])
    assert bare.report.inserted_identities == tuple(sorted(cat.identity_set))
    assert bare.members == fam.members
    named = ["id:a", "s", "r", "e"]
    once = check_weq_axioms(cat, iter(named))  # the names are read once
    assert once.report == check_weq_axioms(cat, named).report
    assert once.report.inserted_identities == (cat.mor("id:b"),)


def test_two_of_three_violation_witnessed():
    cat, _members, _r = category("f_iso")
    fam = check_weq_axioms(cat, ["u"])
    rep = fam.report
    assert not rep.two_of_three_ok and not rep.axioms_ok
    f, g, gf = rep.two_of_three_witness
    flags = (f in fam.members, g in fam.members, gf in fam.members)
    assert sum(flags) == 2
    assert cat.table[g][f] == gf


def test_two_of_three_matches_pair_by_pair_rule():
    """Deciding two out of three a row at a time finds the first failing
    composable pair, on closed families with one arrow's membership
    flipped."""
    rng = random.Random(8)
    failing = 0
    for _ in range(3000):
        cat, members, _doc = gen_any_instance(rng)
        flip = rng.randrange(len(cat.morphisms))
        if flip not in cat.identity_set:
            members = members ^ {flip}
        rep = check_weq_axioms(cat, members).report
        want = brute_two_of_three(cat, members)
        assert rep.two_of_three_witness == want
        assert rep.two_of_three_ok == (want is None)
        failing += want is not None
    assert failing >= 500, failing


def test_weak_invertibility_gap_does_not_gate():
    """An involution outside the family: axioms hold, invertibility fails."""
    cat, members, _r = category("f_z2")
    fam = check_weq_axioms(cat, members)
    rep = fam.report
    assert rep.axioms_ok
    assert not rep.weak_invertibility_ok
    t = cat.mor("t")
    assert rep.weak_invertibility_witness == (t, t, t)


def test_find_splits_concrete():
    cat, _members, _r = category("f_retr")
    s, r = cat.mor("s"), cat.mor("r")
    ida, idb = cat.identity
    assert find_splits(cat) == {(s, r), (ida, ida), (idb, idb)}


def test_split_certificate_on_retract():
    cat, members, _r = category("f_retr")
    fam = check_weq_axioms(cat, members)
    res = check_split_generated(fam)
    assert res.generated and res.missing is None
    cert = res.certificate
    s, r, e = cat.mor("s"), cat.mor("r"), cat.mor("e")
    assert (s, r, "section") in cert.split_weqs
    assert (r, s, "retraction") in cert.split_weqs
    assert cert.decompositions[e] == (r, s)
    assert cat.table[s][r] == e  # decomposition order is first-applied first
    for x in cat.identity_set:
        assert cert.decompositions[x] == (x,)


def test_split_generation_fails_on_span():
    cat, members, _r = category("f_span")
    fam = check_weq_axioms(cat, members)
    assert fam.report.axioms_ok
    res = check_split_generated(fam)
    assert not res.generated
    assert res.certificate is None
    assert res.missing == cat.mor("f")


def test_identity_family_is_split_generated():
    cat, _members, _r = category("f_z2")
    fam = check_weq_axioms(cat, [])
    assert fam.members == frozenset(cat.identity_set)
    assert check_split_generated(fam).generated


def test_unknown_member_rejected():
    cat, _members, _r = category("f_z2")
    with pytest.raises(ValidationError):
        check_weq_axioms(cat, ["ghost"])


def test_corpus_families_honor_closure(split_corpus):
    """Generator families are two-of-three closed independently; the
    checker must agree, and certificates must recompose exactly."""
    for cat, members, _doc in split_corpus[:120]:
        fam = check_weq_axioms(cat, members)
        assert fam.report.axioms_ok
        res = check_split_generated(fam)
        assert res.generated
        cert = res.certificate
        split_set = {w for w, _inv, _kind in cert.split_weqs}
        for w, inv, kind in cert.split_weqs:
            got = cat.table[inv][w] if kind == "section" else cat.table[w][inv]
            assert got in cat.identity_set
        for w in fam.members:
            chain = cert.decompositions[w]
            assert set(chain) <= split_set | set(cat.identity_set)
            acc = chain[0]
            for nxt in chain[1:]:
                acc = cat.table[nxt][acc]
            assert acc == w


def test_split_generation_needs_the_family_axioms():
    """With W = {s, r} on f_retr, s∘r = e is no member: two out of three
    fails, and split generation refuses the family."""
    cat, _members, _r = category("f_retr")
    family = check_weq_axioms(cat, ["s", "r"])
    assert not family.report.axioms_ok
    with pytest.raises(ValidationError) as err:
        check_split_generated(family)
    assert str(err.value) == "split generation needs the family axioms to hold"
