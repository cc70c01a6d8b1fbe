import json
import random

import pytest

from hocat import (
    CatFunctor,
    find_isomorphism,
    load_file,
    load_spec,
    opposite,
    resolve_weqs,
    subcategory,
    validate_category,
)
from hocat.errors import FormatError, ValidationError
from hocat.fixtures import category, load, path

from gencat import gen_category, gen_split_instance


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


def test_load_file_missing_path_is_format_error(tmp_path):
    with pytest.raises(FormatError):
        load_file(tmp_path / "nope.json")


def test_load_file_reads_fixture(tmp_path):
    raw = load(f := "f_retr")
    assert raw.source == f
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
    rng = random.Random(12)
    for _ in range(25):
        cat, _doc = gen_category(rng)
        for f in range(len(cat.morphisms)):
            x, y = cat.dom(f), cat.cod(f)
            both = [g for g in range(len(cat.morphisms))
                    if cat.table[g][f] == cat.identity[x] and cat.table[f][g] == cat.identity[y]]
            assert cat.inverse(f) == min(both, default=None)


def test_opposite_swaps_and_involutes():
    cat, members, _raw = category("f_retr")
    op, w2 = opposite(cat, members)
    assert w2 == members
    for f in range(len(cat.morphisms)):
        assert op.dom(f) == cat.cod(f) and op.cod(f) == cat.dom(f)
    for g, f in cat.composable_pairs():
        assert op.table[f][g] == cat.table[g][f]
    back, _ = opposite(op)
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
    assert sub0.to_sub_obj(cat.obj("x0")) == 0


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


def test_find_isomorphism_concrete():
    iso_cat, _m, _r = category("f_iso")
    retr_cat, _m2, _r2 = category("f_retr")
    assert find_isomorphism(iso_cat, iso_cat) is not None
    assert find_isomorphism(iso_cat, retr_cat) is None


def test_find_isomorphism_on_relabeled_corpus():
    """A name-scrambled reload of the same document is isomorphic."""
    rng = random.Random(21)
    for _ in range(10):
        cat, members, doc = gen_split_instance(rng)
        relabeled = json.loads(json.dumps(doc).replace("o0", "zz").replace("m0", "mm"))
        other = validate_category(load_spec(relabeled))
        got = find_isomorphism(cat, other)
        assert got is not None
        obj_map, mor_map = got
        for g, f in cat.composable_pairs():
            assert mor_map[cat.table[g][f]] == other.table[mor_map[g]][mor_map[f]]
