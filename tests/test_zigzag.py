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
from hocat.errors import FormatError, MoveError, ValidationError
from hocat.fixtures import category
from hocat.zigzag import BWD, CANCEL, COMPOSE, FWD, OMIT, trace_to_json

from oracles import raw_reachable, single_arrow_relation


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
        want = {(f, g) for f, g in cat.parallel_pairs() if cong.related(f, g)}
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
    assert out.zigzag.steps == ((cat.mor("r"), FWD),)
    assert replay(cat, members, out.trace) == out.zigzag
    # a backward non-split member expands through its decomposition
    z2 = make_zigzag(cat, members, "b", [("e", "bwd")])
    out2 = reduce_backward_splits(cat, members, splits, z2)
    assert out2.zigzag.steps == ((cat.mor("e"), FWD),)
    # mixed word collapsing to nothing
    z3 = make_zigzag(cat, members, "a", [("s", "fwd"), ("s", "bwd")])
    out3 = reduce_backward_splits(cat, members, splits, z3)
    assert out3.zigzag.steps == ()


def test_reduce_backward_splits_needs_decomposition():
    cat, members, _r = category("f_retr")
    from hocat.weq import SplitCertificate
    hollow = SplitCertificate(split_weqs=(), decompositions={})
    z = make_zigzag(cat, members, "b", [("e", "bwd")])
    with pytest.raises(ValidationError) as exc:
        reduce_backward_splits(cat, members, hollow, z)
    assert "no split decomposition" in str(exc.value)


def test_ho_hom_on_isomorphism_pair():
    cat, members, _r = category("f_iso")
    cert = certify_whitehead(cat, members).certificate
    q = cert.congruence.quotient.quotient.hom(cat.obj("a"), cat.obj("b"))
    assert len(q) == 1


def test_nonfullness_witness_on_span():
    cat, members, _r = category("f_span")
    wit = nonfullness_witness(cat, members)
    assert (cat.obj_name(wit.source), cat.obj_name(wit.target)) == ("a", "b")
    f, g = cat.mor("f"), cat.mor("g")
    assert wit.zigzag.steps == ((f, BWD), (g, FWD))
    cat2, members2, _r2 = category("f_def")
    wit2 = nonfullness_witness(cat2, members2)
    assert (cat2.obj_name(wit2.source), cat2.obj_name(wit2.target)) == ("x1", "x0")
    assert wit2.zigzag.steps == ((cat2.mor("theta"), BWD),)
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
        pairs = [p for p in cat.parallel_pairs() if cong.related(*p)]
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
