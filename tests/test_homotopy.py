import collections
import dataclasses
import gc
import itertools
import random
import weakref

import pytest

from hocat import (
    Analysis,
    Congruence,
    Precongruence,
    WhiteheadCertificate,
    certify_whitehead,
    check_common_fork,
    check_fork_condition,
    check_rc_transitive,
    check_saturation,
    check_split_generated,
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
from hocat.fixtures import NAMES, category
from hocat.weq import SplitGenResult

from gencat import (
    all_functions_instance,
    function_instance,
    gen_any_instance,
    gen_category,
    gen_document,
    gen_split_instance,
    monoid_corpus,
)
from oracles import (
    brute_close_composition,
    brute_common_fork,
    brute_fork_condition,
    brute_fork_witnesses,
    brute_intransitive_triple,
    brute_left_relation,
    brute_one_sided_relation,
    brute_shared_forks,
    replays_homotopy,
)

SIDES = ("left", "right")


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


def _member_kernels():
    """Functions o0 (2 points), o1 (1 point) -> o2 (3 points) -> o3
    (2 points); the members are p, w1 and w2, all out of o2.  On
    hom(o1, o2), the points a0, a1, a2 of o2, the swap p is injective
    and w1, w2 have the same kernel {a0, a1} | {a2}.  w1 collapses
    hom(o0, o2) = {d0, d1}, which is scanned before hom(o1, o2), and
    hom(o2, o2) = {id, p}."""
    seeds = {"d0": (0, 2, (0, 2)), "d1": (0, 2, (1, 2)),
             "a0": (1, 2, (0,)), "a1": (1, 2, (1,)), "a2": (1, 2, (2,)),
             "p": (2, 2, (1, 0, 2)), "w1": (2, 3, (0, 0, 1)), "w2": (2, 3, (1, 1, 0))}
    return function_instance((2, 1, 3, 2), seeds, ["p", "w1", "w2"])


def test_one_sided_relations_match_brute_force(mixed_corpus, split_corpus):
    kernels = _member_kernels()
    cat, members, _doc = kernels
    pairs = {tuple(sorted(map(cat.mor, p))) for p in (("d0", "d1"), ("a0", "a1"), ("id:o2", "p"))}
    assert Analysis(cat, members).left.pairs == pairs
    every = [all_functions_instance((1, 2, 3), weqs) for weqs in ("all", "bijections")]
    for cat, members, _doc in mixed_corpus + split_corpus + every + [kernels]:
        session = Analysis(cat, members)
        assert session.left.pairs == brute_left_relation(cat, members, "left")
        assert session.right.pairs == brute_left_relation(cat, members, "right")


def test_dominated_members_are_not_read():
    """On all functions between sets of sizes 1, 2, 3 with W every
    arrow, r_left skips each member out of B whose composite with the
    lowest member into B's target is a member: the right relation comes
    as 25 blocks, where reading every member out of B gives 64 blocks
    of the same pairs."""
    cat, members, _doc = all_functions_instance((1, 2, 3), "all")
    right = Analysis(cat, members).right
    assert len(right.blocks) == 25
    assert right.pairs == brute_left_relation(cat, members, "right")


def test_one_sided_relations_match_brute_force_off_the_axioms():
    """A member whose composite with the fixed member into its
    object's target is not a member is read, not skipped: the one-sided
    relations of families not closed under composition, most failing
    the axioms, agree with the brute-force relations on both sides."""
    rng = random.Random(2718)
    failing = 0
    for _ in range(400):
        cat, _doc = gen_category(rng)
        members = {m for m in range(len(cat.morphisms)) if rng.random() < 0.4}
        members |= cat.identity_set
        failing += not check_weq_axioms(cat, members).report.axioms_ok
        session = Analysis(cat, members)
        assert session.left.pairs == brute_left_relation(cat, members, "left")
        assert session.right.pairs == brute_left_relation(cat, members, "right")
    assert failing >= 100


def test_blocks_seed_the_same_congruence(mixed_corpus):
    """Random ascending parallel blocks seed the congruence their pairs
    seed; the one-sided relations come as such blocks, of two or more
    arrows each."""
    rng = random.Random(4412)
    cliques = 0
    for cat, _members, _doc in mixed_corpus:
        homs = [cat.hom(a, b) for a, b in cat.hom_pairs() if len(cat.hom(a, b)) > 1]
        if not homs:
            continue
        blocks = [tuple(sorted(rng.sample(arrows, rng.randint(2, len(arrows)))))
                  for arrows in (rng.choice(homs) for _ in range(rng.randint(1, 3)))]
        cliques += sum(len(b) > 2 for b in blocks)
        pairs = [p for b in blocks for p in itertools.combinations(b, 2)]
        rel = Precongruence.canonical(cat, blocks)
        assert rel.pairs == Precongruence(cat, pairs).pairs
        assert least_congruence(rel) == least_congruence(Precongruence(cat, pairs))
    assert cliques >= 20
    every = [all_functions_instance((1, 2, 3), weqs) for weqs in ("all", "bijections")]
    for cat, members, _doc in mixed_corpus + every:
        session = Analysis(cat, members)
        for block in session.left.blocks | session.right.blocks:
            assert len(block) > 1 and list(block) == sorted(set(block))
            assert len({(cat.dom(f), cat.cod(f)) for f in block}) == 1


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
    for (f, g), wit in Analysis(cat, members).fork_witnesses("left").items():
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
    for wit in Analysis(cat, members).fork_witnesses("right").values():
        assert wit.side == "right"
    with pytest.raises(ValidationError):
        check_fork_condition(cat, members, "middle")
    with pytest.raises(ValidationError):
        Analysis(cat, members).fork_witnesses("middle")


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


def _shared_answers(cat, members, side):
    """Per hom pair, the column-fibre test's answer for every two
    ordered related pairs of it, diagonal included."""
    session = Analysis(cat, members)
    work, transposed = session._work(side)
    related, rel = getattr(session, side), session.closed(side)[1]
    answers = {}
    for va, vb in work.hom_pairs():
        arrows = work.hom(va, vb)
        pairs = [(f, g) for f in arrows for g in arrows
                 if f == g or (min(f, g), max(f, g)) in rel.pairs]
        fibres = homotopy._LegFibres(work, transposed, members, related, va, vb)
        for p, q in itertools.product(pairs, repeat=2):
            legs = fibres.shared(p, q)
            answers[p, q] = legs is not None
            if legs is not None:  # the fork it names mediates both
                mediated = set(zip(*legs))
                assert p in mediated and q in mediated, (p, q)
    return answers


def test_common_fork_exact_test_matches_brute_force():
    """The column-fibre test answers, for every two ordered related
    pairs of a hom pair, whether one weq fork mediates both, as the
    oracle's forks do; the common fork's verdict and counterexample
    agree too.  Both answers occur, per pair of pairs and per side."""
    rng = random.Random(11)
    instances = [gen_any_instance(rng) for _ in range(600)] + monoid_corpus(4)
    answers, verdicts = collections.Counter(), collections.Counter()
    for cat, members, doc in instances:
        for side in SIDES:
            shared = brute_shared_forks(cat, members, side)
            for (p, q), yes in _shared_answers(cat, members, side).items():
                assert yes == ((p, q) in shared), (doc, side, p, q)
                answers[yes] += 1
            want = brute_common_fork(cat, members, side)
            got = Analysis(cat, members).common_fork(side)
            assert (got.ok, got.counterexample) == want, (doc, side)
            verdicts[got.ok] += 1
    assert min(answers.values()) >= 1000 and min(verdicts.values()) >= 100, (answers, verdicts)


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


def test_quotient_path_builds_no_pair_set():
    """The stages `hocat quotient` reports read the one-sided relations
    as blocks, in one session and through the library with the family
    stages given; the certificate's basis is the session's relations
    and gives its pairs when asked."""
    cat, members, _doc = all_functions_instance((1, 2, 3), "all")
    family = check_weq_axioms(cat, members)
    splitgen = check_split_generated(family)
    session = Analysis(cat, members)
    cert = session.whitehead.certificate
    assert session.congruence is cert.congruence
    assert "pairs" not in vars(session.left) and "pairs" not in vars(session.right)
    assert cert.basis[0] is session.left and cert.basis[1] is session.right
    homotopy_congruence(cat, members)
    given = certify_whitehead(cat, members, family=family, splitgen=splitgen).certificate
    assert not any("pairs" in vars(rel) for rel in given.basis)
    assert given.basis[0].pairs == r_left(cat, members).pairs


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


def test_fork_checks_require_axioms():
    """The fork stages read the forks off the one-sided relation, which
    takes two out of three: {u} in f_iso breaks it and every fork stage
    refuses it, while the relation stages still answer."""
    cat, _members, _r = category("f_iso")
    assert not check_weq_axioms(cat, ["u"]).report.axioms_ok
    session = Analysis(cat, ["u"])
    members = session.members
    for side in SIDES:
        for stage in (lambda: check_fork_condition(cat, ["u"], side),
                      lambda: check_common_fork(cat, ["u"], side),
                      lambda: session.fork_witnesses(side)):
            with pytest.raises(ValidationError) as exc:
                stage()
            assert str(exc.value) == "family axioms must hold before the fork checks"
        rel = brute_one_sided_relation(cat, members, side)
        assert session.closed(side)[1].distinct_pairs == rel
        triple = brute_intransitive_triple(rel)
        assert session.rc_transitive(side) == (triple is None, triple)
        assert check_rc_transitive(cat, ["u"], side) == (triple is None, triple)


def test_fork_checks_match_brute_force(mixed_corpus, split_corpus):
    """Both fork checks agree with the definitions, failures included,
    and every witness they return replays."""
    fork_failures = common_failures = 0
    for cat, members, _doc in mixed_corpus + split_corpus:
        session = Analysis(cat, members)
        for side in ("left", "right"):
            res = check_fork_condition(cat, members, side)
            assert (res.ok, res.counterexample) == brute_fork_condition(cat, members, side)
            rel = brute_one_sided_relation(cat, members, side)
            witnesses = session.fork_witnesses(side)
            assert set(witnesses) == {p for p in rel
                                      if res.ok or p < res.counterexample}
            for (f, g), wit in witnesses.items():
                assert (wit.f, wit.g) == (f, g) and (f, g) in rel
                assert replays_homotopy(cat, members, side, wit)
            common = check_common_fork(cat, members, side)
            assert (common.ok, common.counterexample) == \
                brute_common_fork(cat, members, side)
            fork_failures += not res.ok
            common_failures += not common.ok
    assert fork_failures >= 1 and common_failures >= 1


def test_fork_witnesses_match_brute_force(mixed_corpus, split_corpus):
    """Each side's witnesses are those read off the definition's forks
    in order: earliest fork, legs in pair order, lowest collapse and
    lowest mediator, up to the fork condition's counterexample."""
    every = [all_functions_instance((1, 2, 3), weqs) for weqs in ("all", "bijections")]
    witnesses = 0
    for cat, members, _doc in mixed_corpus + split_corpus + every:
        session = Analysis(cat, members)
        for side in SIDES:
            cut = brute_fork_condition(cat, members, side)[1]
            got = session.fork_witnesses(side)
            assert list(got.items()) == \
                list(brute_fork_witnesses(cat, members, side, cut).items()), side
            witnesses += len(got)
    assert witnesses > 1000


def test_fork_witnesses_read_the_one_sided_relation_as_blocks():
    """The witnesses read each one-sided relation as blocks: on all
    functions on a 3-point set with W every arrow, whose one-sided
    blocks hold more than two arrows, neither side's pair set is built."""
    cat, members, _doc = all_functions_instance((3,), "all")
    session = Analysis(cat, members)
    for side in SIDES:
        assert max(map(len, getattr(session, side).blocks)) >= 3, side
        assert session.fork_witnesses(side), side
    assert "pairs" not in vars(session.left) and "pairs" not in vars(session.right)


def _library_answers(cat, weqs):
    """Every answer the functions reading a fresh session give."""
    return (homotopy_congruence(cat, weqs), r_right(cat, weqs), r_left_comp(cat, weqs),
            r_right_comp(cat, weqs), certify_whitehead(cat, weqs),
            *(check(cat, weqs, side) for side in SIDES
              for check in (check_fork_condition, check_common_fork, check_rc_transitive)))


def _fresh_answers(cat, weqs):
    """The same answers, read from a fresh session."""
    s = Analysis(cat, weqs)
    return (s.congruence, s.right, s.closed("left")[1],
            Precongruence.canonical(cat, s.closed("right")[1].pairs), s.whitehead,
            *(stage(side) for side in SIDES
              for stage in (s.fork_condition, s.common_fork, s.rc_transitive)))


def _spellings(cat, members):
    """The family ``members`` named four ways."""
    plain = sorted(members - cat.identity_set)
    return {"names": [cat.mor_name(w) for w in plain], "indices": plain,
            "members": members,
            "names with identities": [cat.mor_name(w) for w in sorted(members)]}


def test_library_calls_build_the_congruence_once(monkeypatch):
    """One Analysis, the family named any way, read for its congruence,
    Whitehead, saturation, both fork conditions and both closures,
    builds the opposite category and the congruence once and the fork
    condition once per side.  homotopy_congruence and certify_whitehead,
    the family stages given or not, build the opposite category and the
    congruence once per call."""
    calls = collections.Counter()

    def counted(name):
        real = getattr(homotopy, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(homotopy, name, wrapper)

    counted("opposite")
    counted("least_congruence")
    counted("_fork_condition")
    for name in NAMES:
        cat, members, _raw = category(name)
        for spelling, weqs in _spellings(cat, members).items():
            case = (name, spelling)
            calls.clear()
            session = Analysis(cat, weqs)
            session.congruence, session.whitehead, session.saturation
            for side in SIDES:
                session.fork_condition(side), session.closed(side)
            assert calls == {"opposite": 1, "least_congruence": 1, "_fork_condition": 2}, case
            family = check_weq_axioms(cat, weqs)
            stages = {"family": family, "splitgen": check_split_generated(family)}
            for call in (lambda: homotopy_congruence(cat, weqs),
                         lambda: certify_whitehead(cat, weqs),
                         lambda: certify_whitehead(cat, weqs, **stages)):
                calls.clear()
                call()
                assert calls == {"opposite": 1, "least_congruence": 1}, case


def test_library_calls_answer_as_a_fresh_session(mixed_corpus):
    """On one category, the families A, B (the identities), A again and
    A named without its identities: every function of hocat.homotopy
    but r_left answers as a fresh session does, though the family
    changes, and A named either way gets the same answers."""
    differ = 0
    for cat, members, _doc in mixed_corpus[:60]:
        named = sorted(cat.mor_name(w) for w in members - cat.identity_set)
        answers = []
        for weqs in (members, cat.identity_set, members, named):
            answers.append(_library_answers(cat, weqs))
            assert answers[-1] == _fresh_answers(cat, weqs)
        differ += answers[0] != answers[1]
        assert answers[3] == answers[2] == answers[0]
    assert differ >= 10


def test_whitehead_does_not_depend_on_earlier_calls():
    """certify_whitehead answers alike on a fresh category and after
    check_saturation, and a session's Whitehead stage alike read first,
    after saturation and after split generation; a certified result
    carries no split generation."""
    for name in NAMES:
        cat, members, _raw = category(name)
        fresh = certify_whitehead(cat, members)
        cong = homotopy_congruence(cat, members)
        check_saturation(cat, members, WhiteheadCertificate(cong, {}, ()))
        after_saturation = certify_whitehead(cat, members)
        first, after_sat, after_splitgen = (Analysis(cat, members) for _ in range(3))
        after_sat.saturation
        after_splitgen.splitgen
        assert fresh == after_saturation == first.whitehead == after_sat.whitehead \
            == after_splitgen.whitehead, name
        assert fresh.certified == (fresh.split_generation is None), name


def test_given_stages_stand_in_for_the_session_stages(monkeypatch):
    """certify_whitehead takes a given family's axiom check instead of
    its own and carries a given split generation on a failed result; a
    certified result is a fresh session's either way, and the session
    computes neither stage."""
    cat, members, raw = category("f_retr")
    family = check_weq_axioms(cat, raw.weak_equivalences)  # identities implicit
    splitgen = check_split_generated(family)
    cong = homotopy_congruence(cat, members)

    def refuse(*_args):
        raise AssertionError("the session checked the family again")
    monkeypatch.setattr(homotopy, "check_weq_axioms", refuse)
    monkeypatch.setattr(homotopy, "check_split_generated", refuse)
    res = certify_whitehead(cat, members, family=family, splitgen=splitgen)
    assert res.congruence == cong and res.split_generation is None
    assert res == certify_whitehead(cat, members, family=family)
    monkeypatch.undo()
    assert res == certify_whitehead(cat, members) == Analysis(cat, members).whitehead

    cat, members, raw = category("f_span")
    family = check_weq_axioms(cat, raw.weak_equivalences)
    splitgen = check_split_generated(family)
    res = certify_whitehead(cat, members, family=family, splitgen=splitgen)
    assert res.status == "failed" and res.split_generation is splitgen
    assert res == certify_whitehead(cat, members)


def test_given_family_must_have_the_members():
    """A family given to certify_whitehead with other members than the
    weak equivalences named is refused."""
    refused = 0
    for name in NAMES:
        cat, members, _raw = category(name)
        other = check_weq_axioms(cat, cat.identity_set)
        if other.members == members:
            continue
        with pytest.raises(ValidationError) as exc:
            certify_whitehead(cat, members, family=other)
        assert str(exc.value) == "the given family has other members than the weak equivalences"
        refused += 1
    assert refused >= 3


def _one_object(seed):
    """A one-object category of gen_document."""
    return validate_category(load_spec(gen_document(random.Random(seed), max_objects=1)))


def test_given_family_must_be_of_the_category():
    """A family given to certify_whitehead must be of the category named.
    Of two one-object categories with 3 arrows, the family {0, 1} fails
    two out of three in the first and passes in the second; the
    second's is refused, not taken for the first's axiom check, and an
    equal copy of the first stands for it."""
    cat, other = _one_object(3), _one_object(105)
    assert len(cat.morphisms) == len(other.morphisms) == 3 and cat != other
    with pytest.raises(ValidationError, match="family axioms must hold before certification"):
        certify_whitehead(cat, [0, 1])
    foreign = check_weq_axioms(other, [0, 1])
    assert foreign.report.axioms_ok
    with pytest.raises(ValidationError) as exc:
        certify_whitehead(cat, [0, 1], family=foreign)
    assert str(exc.value) == "the given family is of another category"
    copy = _one_object(3)
    assert copy is not cat and copy == cat
    with pytest.raises(ValidationError, match="family axioms must hold before certification"):
        certify_whitehead(cat, [0, 1], family=check_weq_axioms(copy, [0, 1]))


def test_a_category_read_by_a_wrapper_is_freed_without_the_collector():
    """Every function of hocat.homotopy but r_left reads a fresh session
    and keeps nothing on the category, so the category is no reference
    cycle afterwards: it is freed as soon as its last reference goes,
    with the cyclic collector off."""
    def saturation(cat, members):
        return check_saturation(cat, members, certify_whitehead(cat, members).certificate)

    wrappers = (homotopy_congruence, certify_whitehead, saturation, r_right, r_left_comp,
                r_right_comp, check_fork_condition, check_common_fork, check_rc_transitive)
    for wrapper in wrappers:
        cat, members, _raw = category("f_retr")
        gc.disable()
        try:
            wrapper(cat, members)
            freed = weakref.ref(cat)
            del cat
            assert freed() is None, wrapper.__name__
        finally:
            gc.enable()


def test_given_split_generation_must_have_the_members():
    """A split generation given to certify_whitehead must be of the weak
    equivalences named.  On f_span its own (failed, missing f) is taken;
    f_retr's (generated, decomposing one arrow more) and a failed one
    missing g, which is no member, are refused."""
    span, members, _raw = category("f_span")
    own = check_split_generated(check_weq_axioms(span, members))
    assert own.missing == span.mor("f")
    assert certify_whitehead(span, members, splitgen=own).split_generation is own
    retr = check_split_generated(check_weq_axioms(*category("f_retr")[:2]))
    assert retr.generated and set(retr.certificate.decompositions) > members
    for foreign in (retr, SplitGenResult(None, span.mor("g"))):
        with pytest.raises(ValidationError) as exc:
            certify_whitehead(span, members, splitgen=foreign)
        assert str(exc.value) == (
            "the given split generation has other members than the weak equivalences")


FOREIGN = "the certificate is not on the homotopy congruence of the family"


def test_saturation_compares_the_congruence():
    """check_saturation returns a fresh session's report for a
    certificate on a congruence equal to the homotopy congruence (the
    certificate's own or a copy) and refuses one on another congruence;
    every other answer stays a fresh session's."""
    refused = 0
    for name in NAMES:
        cat, members, _raw = category(name)
        cong = homotopy_congruence(cat, members)
        res = certify_whitehead(cat, members)
        cert = res.certificate or WhiteheadCertificate(cong, {}, ())
        report = check_saturation(cat, members, cert)
        assert report == Analysis(cat, members).saturation
        equal = dataclasses.replace(cert, congruence=Congruence(cat, cong.classes))
        assert check_saturation(cat, members, equal) == report
        discrete = Congruence.discrete(cat)
        if cong != discrete:
            with pytest.raises(ValidationError, match=FOREIGN):
                check_saturation(cat, members, dataclasses.replace(cert, congruence=discrete))
            refused += 1
        assert _library_answers(cat, members) == _fresh_answers(cat, members)
    assert refused >= 2


def test_saturation_refuses_a_foreign_certificate():
    """On a split instance whose homotopy congruence is discrete, a
    certificate on the congruence with one class per hom-set is refused
    by name rather than read as an internal inconsistency."""
    cat, members, _doc = gen_split_instance(random.Random(3))
    assert len(cat.morphisms) == 3
    res = certify_whitehead(cat, members)
    before = _library_answers(cat, members), check_saturation(cat, members, res.certificate)
    homs: dict = {}
    for f in range(len(cat.morphisms)):
        homs.setdefault((cat.dom(f), cat.cod(f)), []).append(f)
    coarse = Congruence(cat, homs.values())
    assert coarse != res.congruence
    with pytest.raises(ValidationError) as exc:
        check_saturation(cat, members, dataclasses.replace(res.certificate, congruence=coarse))
    assert str(exc.value) == FOREIGN
    assert (_library_answers(cat, members),
            check_saturation(cat, members, res.certificate)) == before
