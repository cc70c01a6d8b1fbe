import collections
import functools
import json
import random

import pytest

from hocat import (
    Analysis,
    CatFunctor,
    FinCat,
    Precongruence,
    find_splits,
    least_congruence,
    load_file,
    load_spec,
    opposite,
    resolve_weqs,
    subcategory,
    validate_category,
)
from hocat import fincat
from hocat.errors import FormatError, ValidationError
from hocat.fixtures import NAMES, category, load, path

from gencat import all_functions_instance, gen_category, gen_document, sample_precongruence
from oracles import (
    brute_broken_composite,
    composable_pairs,
    brute_close_composition,
    brute_generated,
    brute_isomorphism,
    brute_law_violation,
    brute_least_congruence,
    parallel_pairs,
)


def small_doc():
    return {
        "objects": ["a", "b"],
        "morphisms": [
            {"name": "s", "dom": "a", "cod": "b"},
            {"name": "r", "dom": "b", "cod": "a"},
            {"name": "e", "dom": "b", "cod": "b"},
        ],
        "composition": [
            {"after": "r", "before": "s", "equals": "id:a"},
            {"after": "s", "before": "r", "equals": "e"},
            {"after": "e", "before": "e", "equals": "e"},
            {"after": "e", "before": "s", "equals": "s"},
            {"after": "r", "before": "e", "equals": "r"},
        ],
        "weak_equivalences": ["s", "r", "e"],
    }


def test_load_synthesizes_identities_first():
    cat = validate_category(load_spec(small_doc()))
    names = [m.name for m in cat.morphisms]
    assert names[:2] == ["id:a", "id:b"]
    assert set(names[2:]) == {"s", "r", "e"}
    assert cat.identity_set == frozenset({0, 1})


def test_identity_laws_filled_in():
    cat = validate_category(load_spec(small_doc()))
    s = cat.mor("s")
    assert cat.table[s][cat.identity[cat.dom(s)]] == s
    assert cat.table[cat.identity[cat.cod(s)]][s] == s


def test_explicit_identity_declaration_merges():
    doc = small_doc()
    doc["morphisms"].append({"name": "id:a", "dom": "a", "cod": "a"})
    cat = validate_category(load_spec(doc))
    assert [m.name for m in cat.morphisms].count("id:a") == 1


def test_reserved_name_misuse_rejected():
    doc = small_doc()
    doc["morphisms"].append({"name": "id:a", "dom": "a", "cod": "b"})
    with pytest.raises(FormatError):
        load_spec(doc)


UNKNOWN_IN_COMPOSITION = "composition entry references unknown morphism "


def unknown_name_in_last_entry(doc):
    doc["composition"][-1]["equals"] = "zz"
    return UNKNOWN_IN_COMPOSITION + "'zz'"


def list_valued_equals(doc):
    doc["composition"][2]["equals"] = ["e"]
    return UNKNOWN_IN_COMPOSITION + "['e']"


def two_unknown_names(doc):
    doc["composition"][1]["before"] = "yy"
    doc["composition"][3]["after"] = "xx"
    return UNKNOWN_IN_COMPOSITION + "'yy'"


def unknown_name_before_bad_shape(doc):
    doc["composition"][1]["after"] = "yy"
    del doc["composition"][3]["equals"]
    return UNKNOWN_IN_COMPOSITION + "'yy'"


def bad_shape_before_unknown_name(doc):
    doc["composition"][1]["extra"] = "s"
    doc["composition"][3]["after"] = "yy"
    return ("composition entry needs exactly after/before/equals, "
            "got ['after', 'before', 'equals', 'extra']")


def number_in_weak_equivalences(doc):
    doc["weak_equivalences"].insert(1, 7)
    return "weak_equivalences references unknown morphism 7"


@pytest.mark.parametrize("mangle, err", [
    (lambda d: d.update(objects=[]), FormatError),
    (lambda d: d.update(objects=["a", "a", "b"]), FormatError),
    (lambda d: d["morphisms"].append({"name": "s", "dom": "a", "cod": "b"}), FormatError),
    (lambda d: d["morphisms"].append({"name": "x", "dom": "a", "cod": "zz"}), FormatError),
    (lambda d: d["composition"].append(
        {"after": "zz", "before": "s", "equals": "s"}), FormatError),
    (lambda d: d.update(weak_equivalences=["nope"]), FormatError),
    (lambda d: d.pop("objects"), FormatError),
    (unknown_name_in_last_entry, FormatError),
    (list_valued_equals, FormatError),
    (two_unknown_names, FormatError),
    (unknown_name_before_bad_shape, FormatError),
    (bad_shape_before_unknown_name, FormatError),
    (number_in_weak_equivalences, FormatError),
])
def test_malformed_documents_rejected(mangle, err):
    """A mangle that returns a string returns the exact message: the
    first bad entry in document order."""
    doc = small_doc()
    message = mangle(doc)
    with pytest.raises(err) as info:
        validate_category(load_spec(doc))
    if isinstance(message, str):
        assert str(info.value) == message


def test_conflicting_composition_entries_rejected():
    doc = small_doc()
    doc["composition"].append({"after": "r", "before": "s", "equals": "id:a"})
    # same pair twice is fine when consistent
    validate_category(load_spec(doc))
    doc["composition"].append({"after": "s", "before": "r", "equals": "id:b"})
    with pytest.raises(ValidationError):
        validate_category(load_spec(doc))


def test_missing_composite_rejected():
    doc = small_doc()
    doc["composition"] = [e for e in doc["composition"]
                          if (e["after"], e["before"]) != ("e", "e")]
    with pytest.raises(ValidationError):
        validate_category(load_spec(doc))


def test_nonassociative_table_rejected():
    # q0,q1,q2: x -> x with q1 q0 = q2, everything else collapsing to q0
    # breaks (q1 q0) q1 = q2 q1 = q0 against q1 (q0 q1) = q1 q0 = q2.
    doc = {
        "objects": ["x"],
        "morphisms": [{"name": f"q{i}", "dom": "x", "cod": "x"} for i in range(3)],
        "composition": [],
        "weak_equivalences": [],
    }
    rule = {("q1", "q0"): "q2", ("q2", "q1"): "q0", ("q1", "q2"): "q2"}
    for f in ("q0", "q1", "q2"):
        for g in ("q0", "q1", "q2"):
            doc["composition"].append(
                {"after": g, "before": f, "equals": rule.get((g, f), "q0")})
    with pytest.raises(ValidationError):
        validate_category(load_spec(doc))


LAW_MESSAGES = {
    "not composable": "composition entry {!r} after {!r}: not composable",
    "endpoint mismatch": "composition entry {!r} after {!r} = {!r}: endpoint mismatch",
    "contradicts": "composition entry {!r} after {!r} = {!r} contradicts {!r} "
                   "(identity law or duplicate entry)",
    "missing": "missing composite: {!r} after {!r}",
    "associativity": "associativity violation on triple ({!r}, {!r}, {!r})",
}


def _corrupt(rng, doc):
    """Drop one entry, point one at another (mostly parallel) arrow, or
    append a duplicate of one with another composite."""
    comp = doc["composition"]
    k = rng.randrange(len(comp))
    roll = rng.random()
    if roll < 0.45:
        del comp[k]
        return
    ends = {name: (d, c) for name, d, c in load_spec(doc).morphisms}
    entry = dict(comp[k])
    pool = [m for m in ends if m != entry["equals"]
            and (roll >= 0.85 or ends[m] == ends[entry["equals"]])]
    entry["equals"] = rng.choice(pool or list(ends))
    if roll < 0.95:
        comp[k] = entry
    else:
        comp.append(entry)


def test_validation_names_the_first_broken_law():
    """On seeded corrupted documents the error is exactly the first
    violation a nested-loop scan finds, and the intact documents pass.
    Some corpus objects have only their identity coming in, so a table
    row there is compared through a one-column gather."""
    rng = random.Random(2718)
    kinds = {kind: 0 for kind in LAW_MESSAGES}
    accepted = identity_only = 0
    while sum(kinds.values()) + accepted < 320:
        doc = gen_document(rng, max_morphisms=rng.choice((8, 12, 20)))
        raw = load_spec(doc)
        assert brute_law_violation(raw) is None
        cat = validate_category(raw)
        identity_only += any(len(arrows) == 1 for arrows in cat.incoming)
        if not doc["composition"]:
            continue
        _corrupt(rng, doc)
        raw = load_spec(doc)
        found = brute_law_violation(raw)
        if found is None:
            validate_category(raw)
            accepted += 1
            continue
        kind, names = found
        kinds[kind] += 1
        with pytest.raises(ValidationError) as err:
            validate_category(raw)
        assert str(err.value) == LAW_MESSAGES[kind].format(*names)
    assert kinds["associativity"] >= 20 and kinds["missing"] >= 100
    assert kinds["endpoint mismatch"] >= 1 and kinds["contradicts"] >= 1
    assert identity_only >= 20


def _law_broken(raw):
    """The kind of the first law ``raw`` breaks, or None; the error
    ``validate_category`` raises must name the oracle's witness."""
    found = brute_law_violation(raw)
    if found is None:
        return None
    with pytest.raises(ValidationError) as err:
        validate_category(raw)
    assert str(err.value) == LAW_MESSAGES[found[0]].format(*found[1])
    return found[0]


def test_light_fallback_names_the_first_broken_triple(monkeypatch):
    """The cyclic group {id, m0, m1} (m1 = m0∘m0) acts on m2, m3, m4:
    o0 -> o1, m1 turning m2 into m3 into m4 into m2, with the entry
    m3∘m0 pointed at m4 instead of m2.  The generators are m0 and m2, so
    Light's test fails on m0, and the full scan names the first broken
    triple, whose middle arrow m1 is not a generator."""
    turn = {"m2": "m3", "m3": "m4", "m4": "m2"}
    back = {v: k for k, v in turn.items()}
    composition = [{"after": "m0", "before": "m0", "equals": "m1"},
                   {"after": "m1", "before": "m1", "equals": "m0"},
                   {"after": "m1", "before": "m0", "equals": "id:o0"},
                   {"after": "m0", "before": "m1", "equals": "id:o0"}]
    for x in turn:
        composition.append({"after": x, "before": "m1", "equals": turn[x]})
        composition.append({"after": x, "before": "m0",
                            "equals": "m4" if x == "m3" else back[x]})
    doc = {"objects": ["o0", "o1"],
           "morphisms": [{"name": m, "dom": "o0", "cod": "o0" if m in ("m0", "m1") else "o1"}
                         for m in ("m0", "m1", "m2", "m3", "m4")],
           "composition": composition}
    made = []
    real = fincat.FinCat.generators.func

    def recording(cat):
        gens = real(cat)
        made.append([cat.mor_name(k) for k in gens])
        return gens
    prop = functools.cached_property(recording)
    prop.__set_name__(fincat.FinCat, "generators")
    monkeypatch.setattr(fincat.FinCat, "generators", prop)
    raw = load_spec(doc)
    assert brute_law_violation(raw) == ("associativity", ("m2", "m1", "m0"))
    assert _law_broken(raw) == "associativity"
    assert made == [["m0", "m2"]]


def test_generators_are_the_greedy_generating_set(mixed_corpus, split_corpus):
    """On the seeded corpora, the fixtures and all functions between sets
    of sizes 1, 2 and 3, the generators reach every arrow, also in the
    opposite, and an arrow is kept exactly when the arrows kept before
    it do not generate it."""
    cats = [cat for cat, _members, _doc in mixed_corpus + split_corpus]
    cats += [category(name)[0] for name in NAMES]
    cats.append(all_functions_instance((1, 2, 3), "all")[0])
    for cat in cats:
        gens = cat.generators
        arrows = frozenset(range(len(cat.morphisms)))
        assert brute_generated(cat, gens) == arrows
        op = opposite(cat)
        assert op.generators == gens and brute_generated(op, gens) == arrows
        for f in arrows:
            assert (f in gens) == (f not in brute_generated(cat, [k for k in gens if k < f]))


def _declared_in(doc, order):
    """``doc`` with its arrows declared in ``order``, a list of names."""
    entry = {m["name"]: m for m in doc["morphisms"]}
    return dict(doc, morphisms=[entry[name] for name in order])


def _answers(doc):
    """A document's answers, by name, each judged by an oracle: the kind
    of law it breaks (the witness the error names depends on the order),
    else both closed one-sided relations and the homotopy congruence."""
    raw = load_spec(doc)
    broken = _law_broken(raw)
    if broken is not None:
        return broken
    cat = validate_category(raw)
    session = Analysis(cat, doc["weak_equivalences"])
    name = cat.mor_name
    out = []
    for side, one_sided in (("left", session.left), ("right", session.right)):
        closed = session.closed(side)[1].pairs
        assert closed == brute_close_composition(cat, one_sided.pairs)
        out.append({frozenset((name(f), name(g))) for f, g in closed})
    cong = session.congruence
    if len(cat.morphisms) <= 12:
        pairs = session.left.pairs | session.right.pairs
        assert tuple(cong.classes[c][0] for c in cong.class_of) == \
            brute_least_congruence(cat, pairs)
    out.append({frozenset(map(name, cls)) for cls in cong.classes})
    return out


def test_answers_do_not_depend_on_declaration_order(mixed_corpus):
    """The generating set depends on the order arrows are declared in;
    the answers it drives do not.  All functions between sets of sizes
    1, 2 and 3 (W every arrow) are declared with the endomorphisms of
    least rank first, composites before their factors, and in random
    orders; small corpus documents in random orders.  Each order, and
    corrupted copies of each document in the same orders, give the same
    verdicts, closures and congruence, and the exact error text."""
    rng = random.Random(1618)
    cat, _members, doc = all_functions_instance((1, 2, 3), "all")
    # A point of X is an arrow out of the one-point set o0.
    rank = {cat.mor_name(f): len({cat.table[f][x] for x in cat.hom(0, cat.dom(f))})
            for f in range(len(cat.morphisms))}
    names = [m["name"] for m in doc["morphisms"]]
    adversarial = sorted(names, key=lambda m: (rank[m], cat.dom(m) != cat.cod(m)))
    assert len(validate_category(load_spec(_declared_in(doc, adversarial))).generators) >= 20
    documents = [(doc, [adversarial])]
    for small, members, small_doc in mixed_corpus[:12]:
        documents.append((dict(small_doc, weak_equivalences=[small.mor_name(w) for w in members]),
                          []))
    kinds = collections.Counter()
    for base, orders in documents:
        names = [m["name"] for m in base["morphisms"]]
        orders = orders + [names] + [rng.sample(names, len(names)) for _ in range(3)]
        copies = [base]
        for _ in range(4 if base["composition"] else 0):
            copy = json.loads(json.dumps(base))
            _corrupt(rng, copy)
            copies.append(copy)
        for copy in copies:
            answers = [_answers(_declared_in(copy, order)) for order in orders]
            assert all(a == answers[0] for a in answers), answers
            kinds[answers[0] if isinstance(answers[0], str) else None] += 1
    assert kinds["associativity"] >= 5 and kinds["missing"] >= 5, kinds


def test_load_file_missing_path_is_format_error(tmp_path):
    with pytest.raises(FormatError):
        load_file(tmp_path / "nope.json")


def test_load_file_reads_fixture(tmp_path):
    raw = load("f_retr")
    target = tmp_path / "copy.json"
    target.write_text(json.dumps(json.loads(path("f_retr").read_text(encoding="utf-8"))))
    assert load_file(target).objects == raw.objects


def test_hom_and_parallel_pairs_consistent():
    rng = random.Random(4)
    for _ in range(25):
        cat, _doc = gen_category(rng)
        nm = len(cat.morphisms)
        for f in range(nm):
            assert f in cat.hom(cat.dom(f), cat.cod(f))
            assert f in cat.outgoing[cat.dom(f)]
            assert f in cat.incoming[cat.cod(f)]
        for f, g in parallel_pairs(cat):
            assert f < g
            assert cat.dom(f) == cat.dom(g) and cat.cod(f) == cat.cod(g)


def test_composition_closed_on_corpus():
    rng = random.Random(11)
    for _ in range(25):
        cat, _doc = gen_category(rng)
        for g, f in composable_pairs(cat):
            c = cat.table[g][f]
            assert cat.dom(c) == cat.dom(f) and cat.cod(c) == cat.cod(g)


def test_inverse_is_the_lowest_two_sided_inverse():
    cat, _m, _r = category("f_iso")
    assert cat.inverse("u") == cat.mor("v") and cat.inverse("id:a") == cat.mor("id:a")
    retr, _m2, _r2 = category("f_retr")
    assert retr.inverse("s") is None and retr.inverse("r") is None  # split only
    # The seeded categories, and all functions between sets of sizes 1,
    # 2 and 3, where arrows have several left or right inverses.
    rng = random.Random(12)
    cats = [gen_category(rng)[0] for _ in range(25)]
    cats.append(all_functions_instance((1, 2, 3), "all")[0])
    for cat in cats:
        arrows = range(len(cat.morphisms))
        for f in arrows:
            x, y = cat.dom(f), cat.cod(f)
            both = [g for g in arrows
                    if cat.table[g][f] == cat.identity[x] and cat.table[f][g] == cat.identity[y]]
            assert cat.inverse(f) == min(both, default=None)
            left = tuple(g for g in arrows if cat.table[g][f] == cat.identity[x])
            right = tuple(g for g in arrows if cat.table[f][g] == cat.identity[y])
            assert cat.one_sided_inverses(f) == (left, right)
        assert find_splits(cat) == {(s, r) for s in arrows for r in arrows
                                    if cat.table[r][s] in cat.identity_set}


def test_opposite_swaps_and_involutes():
    cat, _members, _raw = category("f_retr")
    op = opposite(cat)
    for f in range(len(cat.morphisms)):
        assert op.dom(f) == cat.cod(f) and op.cod(f) == cat.dom(f)
    for g, f in composable_pairs(cat):
        assert op.table[f][g] == cat.table[g][f]
    back = opposite(op)
    assert back.table == cat.table
    assert [m.name for m in back.morphisms] == [m.name for m in cat.morphisms]


def test_resolve_weqs_names_and_indices():
    cat, _members, _raw = category("f_retr")
    byname = resolve_weqs(cat, ["s", "r", "e"])
    byindex = resolve_weqs(cat, [cat.mor("s"), cat.mor("r"), cat.mor("e")])
    assert byname == byindex
    # identities come along implicitly
    assert cat.identity_set <= byname
    with pytest.raises(ValidationError):
        resolve_weqs(cat, ["ghost"])


def test_subcategory_defaults_to_full():
    cat, _members, _raw = category("f_def")
    sub = subcategory(cat, range(len(cat.objects)))
    assert len(sub.cat.morphisms) == len(cat.morphisms)
    sub0 = subcategory(cat, [cat.obj("x0")])
    names = [m.name for m in sub0.cat.morphisms]
    assert names == ["id:x0"]
    assert sub0.objects == (cat.obj("x0"),)


def test_subcategory_rejects_open_morphism_set():
    cat, _members, _raw = category("f_retr")
    with pytest.raises(ValidationError):
        subcategory(cat, [cat.obj("a")], morphisms=[cat.mor("s")])


def test_functor_validates_laws():
    cat, _members, _raw = category("f_iso")
    ident = CatFunctor(cat, cat, tuple(range(len(cat.objects))),
                       tuple(range(len(cat.morphisms))))
    assert ident.on_morphisms[cat.mor("u")] == cat.mor("u")
    swap = {"id:a": "id:b", "id:b": "id:a", "u": "v", "v": "u"}
    mor_map = tuple(cat.mor(swap[m.name]) for m in cat.morphisms)
    CatFunctor(cat, cat, (1, 0), mor_map)
    with pytest.raises(ValidationError):
        CatFunctor(cat, cat, (0, 1), mor_map)  # endpoints disagree


def test_functor_names_the_first_broken_composite():
    """A functor into a copy of its target with table cells changed
    fails on the first (g, f) the oracle names.  The functors are the
    identity and the projection onto a quotient, each target with the
    image cell of one composable pair changed and of two; the pairs
    include rows g whose domain only the identity enters, which the
    check reads with a one-arrow gather."""
    rng = random.Random(4242)
    lone_rows = 0
    for _ in range(40):
        cat, _doc = gen_category(rng)
        cells = list(composable_pairs(cat))
        lone = [(g, f) for g, f in cells
                if sum(m.cod == cat.morphisms[g].dom for m in cat.morphisms) == 1]
        lone_rows += bool(lone)
        proj = least_congruence(Precongruence(cat, sample_precongruence(rng, cat))).quotient
        for base, on in ((cat, tuple(range(len(cat.morphisms)))),
                         (proj.quotient, proj.projection.on_morphisms)):
            for picks in ([rng.choice(cells)], rng.sample(cells, min(2, len(cells))),
                          [rng.choice(lone)] if lone else []):
                table = [list(row) for row in base.table]
                for g, f in picks:
                    cell = table[on[g]][on[f]]
                    table[on[g]][on[f]] = rng.choice(
                        [h for h in range(-1, len(base.morphisms)) if h != cell])
                target = FinCat(base.objects, base.morphisms, base.identity, table)
                want = brute_broken_composite(cat, target, on)
                if want is None:  # no pair picked, or a changed cell changed back
                    CatFunctor(cat, target, range(len(cat.objects)), on)
                    continue
                with pytest.raises(ValidationError) as err:
                    CatFunctor(cat, target, range(len(cat.objects)), on)
                g, f = want
                assert str(err.value) == ("functor breaks composition on "
                                          f"({cat.mor_name(g)!r}, {cat.mor_name(f)!r})")
    assert lone_rows >= 10


def test_brute_isomorphism_oracle():
    """The oracle finds f_iso in a copy with renamed objects and arrows
    declared the other way round, and tells Z/2 from the two-element
    monoid {id, e} with e∘e = e, which has the same hom-set sizes."""
    iso_cat, _m, _r = category("f_iso")
    renamed = validate_category(load_spec({
        "objects": ["q", "p"],
        "morphisms": [{"name": "y", "dom": "p", "cod": "q"},
                      {"name": "x", "dom": "q", "cod": "p"}],
        "composition": [{"after": "x", "before": "y", "equals": "id:p"},
                        {"after": "y", "before": "x", "equals": "id:q"}],
    }))
    obj_map, mor_map = brute_isomorphism(iso_cat, renamed)
    assert obj_map == (renamed.obj("q"), renamed.obj("p"))
    assert mor_map[iso_cat.mor("u")] == renamed.mor("x")
    z2, _m2, _r2 = category("f_z2")
    idempotent = validate_category(load_spec({
        "objects": ["x"],
        "morphisms": [{"name": "e", "dom": "x", "cod": "x"}],
        "composition": [{"after": "e", "before": "e", "equals": "e"}],
    }))
    assert [len(c.hom(0, 0)) for c in (z2, idempotent)] == [2, 2]
    assert brute_isomorphism(z2, idempotent) is None
    assert brute_isomorphism(z2, z2) is not None
