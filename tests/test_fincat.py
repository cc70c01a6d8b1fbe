import json
import random

import pytest

from hocat import (
    CatFunctor,
    find_splits,
    load_file,
    load_spec,
    opposite,
    resolve_weqs,
    subcategory,
    validate_category,
)
from hocat.errors import FormatError, ValidationError
from hocat.fixtures import category, load, path

from gencat import all_functions_instance, gen_category, gen_document
from oracles import brute_isomorphism, brute_law_violation


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


@pytest.mark.parametrize("mangle, err", [
    (lambda d: d.update(objects=[]), FormatError),
    (lambda d: d.update(objects=["a", "a", "b"]), FormatError),
    (lambda d: d["morphisms"].append({"name": "s", "dom": "a", "cod": "b"}), FormatError),
    (lambda d: d["morphisms"].append({"name": "x", "dom": "a", "cod": "zz"}), FormatError),
    (lambda d: d["composition"].append(
        {"after": "zz", "before": "s", "equals": "s"}), FormatError),
    (lambda d: d.update(weak_equivalences=["nope"]), FormatError),
    (lambda d: d.pop("objects"), FormatError),
])
def test_malformed_documents_rejected(mangle, err):
    doc = small_doc()
    mangle(doc)
    with pytest.raises(err):
        validate_category(load_spec(doc))


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


def test_load_file_missing_path_is_format_error(tmp_path):
    with pytest.raises(FormatError):
        load_file(tmp_path / "nope.json")


def test_load_file_reads_fixture(tmp_path):
    raw = load("f_retr")
    target = tmp_path / "copy.json"
    target.write_text(json.dumps(json.load(open(path("f_retr")))))
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
        for f, g in cat.parallel_pairs():
            assert f < g
            assert cat.dom(f) == cat.dom(g) and cat.cod(f) == cat.cod(g)


def test_composition_closed_on_corpus():
    rng = random.Random(11)
    for _ in range(25):
        cat, _doc = gen_category(rng)
        for g, f in cat.composable_pairs():
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
    for g, f in cat.composable_pairs():
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
