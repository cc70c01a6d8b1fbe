import random
import tracemalloc

import pytest

from hocat import (
    apply_move,
    bounded_equiv,
    certify_whitehead,
    check_split_generated,
    check_weq_axioms,
    homotopy_congruence,
    invert_trace,
    make_zigzag,
    nonfullness_witness,
    reduce_backward_splits,
    replay,
    zigzag_from_json,
    zigzag_to_json,
)
from hocat import zigzag
from hocat.errors import FormatError, MoveError, ValidationError
from hocat.fixtures import NAMES, category
from hocat.fincat import resolve_weqs
from hocat.weq import SplitCertificate
from hocat.zigzag import (BWD, CANCEL, COMPOSE, FWD, OMIT, Move, MoveTrace, _Engine, _search,
                          localized_value, trace_to_json)

from gencat import all_functions_instance, gen_any_instance
from oracles import parallel_pairs, raw_reachable, single_arrow_relation


def test_make_zigzag_validates_chaining():
    cat, members, _r = category("f_retr")
    z = make_zigzag(cat, members, "a", [("s", "fwd"), ("r", "fwd"), ("s", "fwd")])
    assert (cat.obj_name(z.source), cat.obj_name(z.target)) == ("a", "b")
    assert len(z) == 3
    with pytest.raises(ValidationError):
        make_zigzag(cat, members, "a", [("r", "fwd")])
    with pytest.raises(ValidationError):
        make_zigzag(cat, members, "b", [("s", "bwd"), ("s", "bwd")])


def test_make_zigzag_rejects_backward_nonmember():
    cat, _members, _r = category("f_span")
    make_zigzag(cat, ["f"], "a", [("f", "bwd")])
    with pytest.raises(ValidationError):
        make_zigzag(cat, ["f"], "b", [("g", "bwd")])


def test_apply_move_concrete_steps():
    cat, members, _r = category("f_retr")
    z = make_zigzag(cat, members, "a", [("s", "fwd"), ("r", "fwd")])
    folded = apply_move(cat, members, z, COMPOSE, 0, "apply")
    assert folded.steps == ((cat.mor("id:a"), FWD),)
    gone = apply_move(cat, members, folded, OMIT, 0, "apply")
    assert gone.steps == ()
    back = apply_move(cat, members, gone, CANCEL, 0, "unapply", ("s", "fwd"))
    assert back.steps == ((cat.mor("s"), FWD), (cat.mor("s"), BWD))
    canceled = apply_move(cat, members, back, CANCEL, 0, "apply")
    assert canceled.steps == ()
    split = apply_move(cat, members, folded, COMPOSE, 0, "unapply", ("s", "r"))
    assert split == z


def test_apply_move_rejects_bad_uses():
    cat, members, _r = category("f_retr")
    z = make_zigzag(cat, members, "a", [("s", "fwd"), ("r", "fwd")])
    bad = [
        (COMPOSE, 1, "apply", None),            # no pair starting there
        (OMIT, 0, "apply", None),               # s is not an identity
        (CANCEL, 0, "apply", None),             # s then r cannot cancel
        (COMPOSE, 0, "apply", "x"),             # ok move, but see below
        (COMPOSE, 0, "unapply", ("r", "s")),    # r;s is e, not s
        (OMIT, 1, "unapply", ("id:a", "fwd")),  # wrong boundary object
        (CANCEL, 0, "unapply", ("e", "bwd")),   # e does not end at a
        (CANCEL, 0, "unapply", None),           # missing payload
        (COMPOSE, 0, "apply", None, "sideways"),
    ]
    for entry in bad:
        kind, pos, direction, payload = entry[:4]
        if len(entry) == 5:
            with pytest.raises(MoveError):
                apply_move(cat, members, z, kind, pos, entry[4], payload)
            continue
        if kind == COMPOSE and direction == "apply" and payload == "x":
            # payload is ignored on apply; this one must succeed
            apply_move(cat, members, z, kind, pos, direction)
            continue
        with pytest.raises(MoveError):
            apply_move(cat, members, z, kind, pos, direction, payload)


@pytest.mark.parametrize("start, steps, move, position, direction, payload, message", [
    ("a", [("s", "fwd"), ("r", "fwd")], OMIT, 5, "apply", None, "no identity step at position 5"),
    ("a", [("s", "fwd"), ("r", "fwd")], OMIT, 3, "unapply", ("id:a", "fwd"),
     "boundary 3 out of range"),
    ("a", [("s", "fwd"), ("r", "fwd")], OMIT, 0, "unapply", None,
     "inserting an identity needs (morphism, dir)"),
    ("a", [("s", "fwd"), ("r", "fwd")], COMPOSE, 2, "unapply", ("s", "id:a"),
     "no step at position 2"),
    ("a", [("s", "fwd"), ("r", "fwd")], COMPOSE, 0, "unapply", None,
     "splitting needs (first, second)"),
    ("b", [("s", "bwd"), ("r", "bwd")], COMPOSE, 0, "apply", None,
     "composite 'e' of backward steps is not a weak equivalence"),
    ("a", [("s", "fwd"), ("r", "fwd")], CANCEL, 1, "apply", None, "no adjacent pair at position 1"),
    ("a", [("s", "fwd"), ("r", "fwd")], CANCEL, -1, "unapply", ("s", "fwd"),
     "boundary -1 out of range"),
    ("a", [("s", "fwd"), ("r", "fwd")], CANCEL, 2, "unapply", ("e", "fwd"),
     "'e' is not a weak equivalence"),
    ("a", [("s", "fwd"), ("r", "fwd")], "slide", 0, "apply", None, "unknown move 'slide'"),
], ids=["omit-step", "omit-boundary", "omit-payload", "split-step", "split-payload",
        "backward-composite", "cancel-pair", "cancel-boundary", "cancel-non-member", "unknown"])
def test_apply_move_messages(start, steps, move, position, direction, payload, message):
    """Each inapplicable move raises a MoveError (exit 3 from the CLI) with
    its own message; W is s and r without their composite e."""
    cat, _members, _r = category("f_retr")
    z = make_zigzag(cat, ["s", "r"], start, steps)
    with pytest.raises(MoveError) as exc:
        apply_move(cat, ["s", "r"], z, move, position, direction, payload)
    assert str(exc.value) == message


def test_backward_compose_needs_member_composite():
    cat, members, _r = category("f_retr")
    # backward s then backward r composes to backward s∘r = e, a member
    z = make_zigzag(cat, members, "b", [("s", "bwd"), ("r", "bwd")])
    out = apply_move(cat, members, z, COMPOSE, 0, "apply")
    assert out.steps == ((cat.mor("e"), BWD),)
    thin, _m, _r2 = category("f_span")
    z2 = make_zigzag(thin, ["f"], "a", [("f", "bwd")])
    with pytest.raises(MoveError):
        apply_move(thin, ["f"], z2, COMPOSE, 0, "unapply", ("id:c", "f"))


@pytest.mark.parametrize("encoding, message", [
    ("utf-16", "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte"),
    ("utf-32", "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
               "invalid start byte"),
    ("utf-8-sig", "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                  "line 1 column 1 (char 0)"),
], ids=["utf-16", "utf-32", "bom"])
def test_zigzag_document_bytes_are_utf8_text(encoding, message):
    """A zigzag document given as bytes is read strictly as UTF-8, as a
    category document is."""
    cat, members, _r = category("f_retr")
    text = '{"start": "a", "steps": [["s", "fwd"]]}'
    assert zigzag_from_json(cat, members, text.encode()) == \
        make_zigzag(cat, members, "a", [("s", "fwd")])
    with pytest.raises(FormatError) as err:
        zigzag_from_json(cat, members, text.encode(encoding))
    assert str(err.value) == message


def test_replay_and_invert_round_trip():
    cat, members, _r = category("f_retr")
    z1 = make_zigzag(cat, members, "b", [("e", "fwd")])
    z2 = make_zigzag(cat, members, "b", [("id:b", "fwd")])
    res = bounded_equiv(cat, members, z1, z2)
    assert res.equivalent
    trace = res.trace
    assert replay(cat, members, trace) == z2
    rev = invert_trace(cat, members, trace)
    assert rev.start == z2 and rev.end == z1
    assert replay(cat, members, rev) == z1
    assert len(rev.moves) == len(trace.moves)


def test_direction_must_be_fwd_or_bwd():
    cat, members, _r = category("f_retr")
    with pytest.raises(FormatError) as err:
        make_zigzag(cat, members, "a", [("s", "up")])
    assert str(err.value) == "direction must be fwd or bwd, not 'up'"


def test_trace_with_a_wrong_end_neither_replays_nor_inverts():
    """A trace whose moves do not reach its recorded end is refused."""
    cat, members, _r = category("f_retr")
    z1 = make_zigzag(cat, members, "b", [("e", "fwd")])
    trace = bounded_equiv(cat, members, z1,
                          make_zigzag(cat, members, "b", [("id:b", "fwd")])).trace
    assert trace.moves
    wrong = MoveTrace(trace.start, trace.start, trace.moves)
    with pytest.raises(MoveError) as err:
        replay(cat, members, wrong)
    assert str(err.value) == "trace does not reach its recorded end zigzag"
    with pytest.raises(MoveError) as err:
        invert_trace(cat, members, wrong)
    assert str(err.value) == "trace does not replay; cannot invert"


def test_localized_value_needs_inverses_of_backward_steps():
    """In f_retr itself, r has a left inverse (r∘s = id:a) but no
    two-sided one, so r taken backward has no value there."""
    cat, members, _r = category("f_retr")
    identity = range(len(cat.morphisms))
    assert localized_value(cat, identity, make_zigzag(cat, members, "a", [("r", "bwd")])) is None
    assert localized_value(cat, identity,
                           make_zigzag(cat, members, "a", [("s", "fwd")])) == cat.mor("s")


def test_bounded_equiv_retract_example():
    cat, members, _r = category("f_retr")
    z1 = make_zigzag(cat, members, "b", [("e", "fwd")])
    z2 = make_zigzag(cat, members, "b", [("id:b", "fwd")])
    res = bounded_equiv(cat, members, z1, z2, budget=8)
    assert res.status == "equivalent"
    assert res.trace.start == z1 and res.trace.end == z2
    assert bounded_equiv(cat, members, z1, z1).status == "equivalent"
    assert bounded_equiv(cat, members, z1, z2, budget=0).status == "unknown"
    with pytest.raises(ValidationError):
        z3 = make_zigzag(cat, members, "a", [("s", "fwd")])
        bounded_equiv(cat, members, z1, z3)
    with pytest.raises(ValidationError):
        bounded_equiv(cat, members, z1, z1, budget=-1)


@pytest.mark.parametrize("budget", [True, False, 2.9, 4.0, "4", None])
def test_budget_must_be_an_int(budget):
    """A bool or any non-int budget is refused, not coerced."""
    cat, members, _r = category("f_retr")
    z1 = make_zigzag(cat, members, "b", [("e", "fwd")])
    z2 = make_zigzag(cat, members, "b", [("id:b", "fwd")])
    with pytest.raises(ValidationError, match="budget must be an integer"):
        bounded_equiv(cat, members, z1, z2, budget=budget)


def test_search_memory_does_not_grow_with_budget():
    """A pair that meets at cost 2 needs no memory sized by the budget."""
    cat, members, _r = category("f_retr")
    z1 = make_zigzag(cat, members, "b", [("e", "fwd")])
    z2 = make_zigzag(cat, members, "b", [])
    tracemalloc.start()
    try:
        res = bounded_equiv(cat, members, z1, z2, budget=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "equivalent"
    assert res.trace == bounded_equiv(cat, members, z1, z2, budget=8).trace
    assert peak < 5_000_000, peak


def _one_arrow_pairs(cat, members):
    """The one-arrow zigzags of each pair of distinct parallel arrows."""
    for f, g in parallel_pairs(cat):
        yield (make_zigzag(cat, members, cat.dom(f), [(f, FWD)]),
               make_zigzag(cat, members, cat.dom(g), [(g, FWD)]))


def _refuted(cat, members):
    """The one-arrow pairs whose values in ``cat`` differ, when every
    member has a two-sided inverse there; else none."""
    if any(cat.inverse(w) is None for w in resolve_weqs(cat, members)):
        return []
    arrows = range(len(cat.morphisms))
    return [(z1, z2) for z1, z2 in _one_arrow_pairs(cat, members)
            if localized_value(cat, arrows, z1) != localized_value(cat, arrows, z2)]


def test_refutation_never_contradicts_the_search(split_corpus, tiny_corpus):
    """Every one-arrow pair the values refute is one the search, run on
    its own, cannot link either: the fixtures at the default budget 8,
    the split corpus at budget 6 (its 341 refuted pairs take ~0.7 s
    there, ~6.5 s at budget 8), and the corpus of
    ``test_pair_mode_sound_against_raw_search`` at its budgets 1 and 2,
    where the values now answer before its own search runs.
    """
    refuted = 0
    for name in NAMES:
        cat, members, _r = category(name)
        for z1, z2 in _refuted(cat, members):
            assert _search(cat, members, z1, z2, 8).status == "unknown", name
            refuted += 1
    for cat, members, _doc in split_corpus:
        for z1, z2 in _refuted(cat, members):
            assert _search(cat, members, z1, z2, 6).status == "unknown"
            refuted += 1
    for cat, members, _doc in tiny_corpus:
        for z1, z2 in _refuted(cat, members):
            for budget in (1, 2):
                assert _search(cat, members, z1, z2, budget).status == "unknown"
            refuted += 1
    assert refuted >= 300, refuted


@pytest.fixture
def engines(monkeypatch):
    """The search engines bounded_equiv builds, one entry each."""
    built = []

    class Counted(_Engine):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(zigzag, "_Engine", Counted)
    return built


def test_uninvertible_family_keeps_the_search(engines, mixed_corpus):
    """With a member that has no two-sided inverse in the category,
    nothing is valued: every pair of distinct zigzags is searched."""
    searched = 0
    retr, retr_members, _r = category("f_retr")
    instances = ([(retr, retr_members), (retr, ["s"]), (retr, ["r"])]
                 + [inst[:2] for inst in mixed_corpus])
    for cat, members in instances:
        if all(cat.inverse(w) is not None for w in resolve_weqs(cat, members)):
            continue
        for z1, z2 in _one_arrow_pairs(cat, members):
            before = len(engines)
            bounded_equiv(cat, members, z1, z2, budget=1)
            assert len(engines) == before + 1
            searched += 1
    assert searched >= 100, searched


def test_one_sided_inverse_is_not_enough():
    """In f_retr with s alone as the family, s has the left inverse r
    but no two-sided one: e = s∘r and id:b differ in the category, yet
    r = s^-1 where s is inverted, so e = id:b there and the search links
    them.  Dually with r alone."""
    cat, _members, _r = category("f_retr")
    for members in (["s"], ["r"]):
        z1 = make_zigzag(cat, members, "b", [("e", "fwd")])
        z2 = make_zigzag(cat, members, "b", [("id:b", "fwd")])
        assert bounded_equiv(cat, members, z1, z2).status == "equivalent", members


def test_invertible_family_refutes_every_inequivalent_pair_at_once(engines):
    """All functions between sets of sizes 1, 2 and 3 with W the
    bijections: the localization is the category itself, and no pair of
    distinct parallel arrows, all inequivalent, builds a search."""
    cat, members, _doc = all_functions_instance((1, 2, 3), "bijections")
    cong = homotopy_congruence(cat, members)
    pairs = list(_one_arrow_pairs(cat, members))
    assert len(pairs) == 425
    for z1, z2 in pairs:
        assert not cong.related(z1.steps[0][0], z2.steps[0][0])
        assert bounded_equiv(cat, members, z1, z2).status == "unknown"
    assert engines == []


def test_inequivalent_pair_at_the_default_budget_is_small():
    """The two maps from a point to a two-point set, among all functions
    between sets of sizes 1, 2 and 3 with W the bijections: searched at
    budget 8 this pair held gigabytes for minutes; valued, it answers
    at once and in a few kilobytes."""
    cat, members, _doc = all_functions_instance((1, 2, 3), "bijections")
    f, g = cat.hom(cat.obj("o0"), cat.obj("o1"))
    z1 = make_zigzag(cat, members, "o0", [(f, FWD)])
    z2 = make_zigzag(cat, members, "o0", [(g, FWD)])
    tracemalloc.start()
    try:
        res = bounded_equiv(cat, members, z1, z2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "unknown" and res.trace is None
    assert peak < 5_000_000, peak


def test_successors_prune_exactly_what_exceeds_the_room():
    """Building only the macros that fit ``room`` loses no successor
    within it, and keeps their order.

    States are walked two macro steps out from every one-arrow seed of
    seeded random categories, keeping at most 40 states of each step;
    each is expanded at every room 0..5 and compared against an
    expansion with room to spare.  Making any one macro's guard stricter
    by one fails here.
    """
    rng, pick = random.Random(31), random.Random(32)
    checks = 0
    for _ in range(60):
        cat, members, _doc = gen_any_instance(rng, max_morphisms=10)
        eng = _Engine(cat, resolve_weqs(cat, members))
        level = sorted({eng.seed(cat.dom(f), (f * 2,))[0] for f in range(len(cat.morphisms))})
        states = set(level)
        for _step in range(2):
            level = sorted({nxt for state in level for nxt, _c, _d in eng.successors(state, 99)})
            if len(level) > 40:
                level = sorted(pick.sample(level, 40))
            states.update(level)
        for state in sorted(states):
            full = list(eng.successors(state, 99))
            for room in range(6):
                got = list(eng.successors(state, room))
                assert [s for s in got if s[1] <= room] == [s for s in full if s[1] <= room]
                assert set(got) <= set(full)
                checks += 1
    assert checks >= 5000, checks


def test_equiv_trace_within_raw_move_reach():
    """The macro search must stay inside plain move reachability."""
    cat, members, _r = category("f_retr")
    z1 = make_zigzag(cat, members, "b", [("e", "fwd")])
    z2 = make_zigzag(cat, members, "b", [("id:b", "fwd")])
    ball2 = raw_reachable(cat, members, z1, 2)
    assert z2 not in ball2
    ball4 = raw_reachable(cat, members, z1, 4)
    assert z2 in ball4
    assert len(bounded_equiv(cat, members, z1, z2).trace.moves) == 4


def test_single_arrow_relation_matches_congruence_on_fixtures():
    for name in ("f_id", "f_iso", "f_retr", "f_span", "f_def", "f_z2"):
        cat, members, _r = category(name)
        rel = single_arrow_relation(cat, members, 8)
        cong = homotopy_congruence(cat, members)
        want = {(f, g) for f, g in parallel_pairs(cat) if cong.related(f, g)}
        assert rel == want, name


def test_single_arrow_relation_budget_zero_is_discrete():
    cat, members, _r = category("f_retr")
    assert single_arrow_relation(cat, members, 0) == frozenset()


def test_reduce_backward_splits_turns_sections_around():
    cat, members, _r = category("f_retr")
    fam = check_weq_axioms(cat, members)
    splits = check_split_generated(fam).certificate
    z = make_zigzag(cat, members, "b", [("s", "bwd")])
    out = reduce_backward_splits(cat, members, splits, z)
    assert out.start == z and out.end.steps == ((cat.mor("r"), FWD),)
    assert replay(cat, members, out) == out.end
    # a backward non-split member expands through its decomposition
    z2 = make_zigzag(cat, members, "b", [("e", "bwd")])
    out2 = reduce_backward_splits(cat, members, splits, z2)
    assert out2.end.steps == ((cat.mor("e"), FWD),)
    # mixed word collapsing to nothing
    z3 = make_zigzag(cat, members, "a", [("s", "fwd"), ("s", "bwd")])
    out3 = reduce_backward_splits(cat, members, splits, z3)
    assert out3.end.steps == ()


def test_reduce_backward_splits_peels_long_decompositions_and_omits_identities():
    """A decomposition of three or more factors is peeled one factor at a
    time, and a backward identity step is omitted."""
    cat, members, _r = category("f_retr")
    splits = check_split_generated(check_weq_axioms(cat, members)).certificate
    s, r, e = cat.mor("s"), cat.mor("r"), cat.mor("e")
    # e = s∘r∘s∘r: the factors in the order applied, r first
    long = SplitCertificate(split_weqs=splits.split_weqs, decompositions={e: (r, s, r, s)})
    out = reduce_backward_splits(cat, members, long, make_zigzag(cat, members, "b", [("e", "bwd")]))
    assert out.end.steps == ((e, FWD),)
    assert out.moves[:3] == (Move(COMPOSE, "unapply", 0, (s, r)),
                                   Move(COMPOSE, "unapply", 0, (e, s)),
                                   Move(COMPOSE, "unapply", 0, (s, r)))
    assert replay(cat, members, out) == out.end
    z = make_zigzag(cat, members, "b", [("id:b", "bwd")])
    out = reduce_backward_splits(cat, members, splits, z)
    assert out.end.steps == () and out.moves == (Move(OMIT, "apply", 0),)


def test_reduce_backward_splits_needs_decomposition():
    cat, members, _r = category("f_retr")
    hollow = SplitCertificate(split_weqs=(), decompositions={})
    z = make_zigzag(cat, members, "b", [("e", "bwd")])
    with pytest.raises(ValidationError) as exc:
        reduce_backward_splits(cat, members, hollow, z)
    assert "no split decomposition" in str(exc.value)


def test_ho_hom_on_isomorphism_pair():
    cat, members, _r = category("f_iso")
    cert = certify_whitehead(cat, members).certificate
    q = cert.congruence.quotient.hom(cat.obj("a"), cat.obj("b"))
    assert len(q) == 1


def test_nonfullness_witness_on_span():
    cat, members, _r = category("f_span")
    wit = nonfullness_witness(cat, members)
    assert (cat.obj_name(wit.source), cat.obj_name(wit.target)) == ("a", "b")
    f, g = cat.mor("f"), cat.mor("g")
    assert wit.steps == ((f, BWD), (g, FWD))
    cat2, members2, _r2 = category("f_def")
    wit2 = nonfullness_witness(cat2, members2)
    assert (cat2.obj_name(wit2.source), cat2.obj_name(wit2.target)) == ("x1", "x0")
    assert wit2.steps == ((cat2.mor("theta"), BWD),)
    assert nonfullness_witness(*category("f_retr")[:2]) is None


def test_zigzag_json_round_trip():
    cat, members, _r = category("f_retr")
    z = make_zigzag(cat, members, "a", [("s", "fwd"), ("e", "bwd"), ("e", "fwd")])
    doc = zigzag_to_json(cat, z)
    assert doc["source"] == "a" and doc["target"] == "b"
    back = zigzag_from_json(cat, members, {"start": doc["source"],
                                           "steps": doc["steps"]})
    assert back == z
    with pytest.raises(FormatError):
        zigzag_from_json(cat, members, "{broken")
    with pytest.raises(FormatError):
        zigzag_from_json(cat, members, {"steps": []})
    with pytest.raises(FormatError):
        zigzag_from_json(cat, members, {"start": "a", "steps": [["s"]]})


@pytest.mark.parametrize("document, message", [
    ({"start": "a", "step": [["s", "fwd"]]}, "zigzag document: unknown field 'step'"),
    ({"start": "a"}, 'zigzag document needs "start" and "steps"'),
    ({"start": "a", "steps": [], "x": 1}, "zigzag document: unknown field 'x'"),
    ({"x": 1, "start": "a", "y": 2}, "zigzag document: unknown field 'x'"),
], ids=["misspelled-steps", "no-steps", "extra-field", "first-unknown-field"])
def test_zigzag_document_holds_exactly_start_and_steps(document, message):
    """A field other than start and steps is refused, the first in
    document order named, before a missing one; a misspelled steps is
    never read as the empty zigzag."""
    cat, members, _r = category("f_retr")
    with pytest.raises(FormatError) as info:
        zigzag_from_json(cat, members, document)
    assert str(info.value) == message


def test_trace_json_shape():
    cat, members, _r = category("f_retr")
    z1 = make_zigzag(cat, members, "b", [("e", "fwd")])
    z2 = make_zigzag(cat, members, "b", [("id:b", "fwd")])
    trace = bounded_equiv(cat, members, z1, z2).trace
    doc = trace_to_json(cat, trace)
    assert doc["start"]["source"] == "b"
    assert doc["end"]["steps"] == [["id:b", "fwd"]]
    kinds = {m["move"] for m in doc["moves"]}
    assert kinds <= {OMIT, COMPOSE, CANCEL}


def test_explorer_traces_replay_on_corpus(split_corpus):
    """Whatever pair mode certifies on random instances must replay."""
    rng = random.Random(1123)
    checked = 0
    for cat, members, _doc in split_corpus:
        cong = homotopy_congruence(cat, members)
        pairs = [p for p in parallel_pairs(cat) if cong.related(*p)]
        if not pairs:
            continue
        f, g = pairs[rng.randrange(len(pairs))]
        z1 = make_zigzag(cat, members, cat.dom(f), [(f, FWD)])
        z2 = make_zigzag(cat, members, cat.dom(g), [(g, FWD)])
        res = bounded_equiv(cat, members, z1, z2, budget=8)
        if res.equivalent:
            assert replay(cat, members, res.trace) == z2
            assert len(res.trace.moves) <= 16  # at most budget per side
            checked += 1
    assert checked >= 10
