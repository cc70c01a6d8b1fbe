import collections
import gc
import random
import re
import weakref
from itertools import combinations

import pytest

from hocat import (
    kernel_congruence,
    least_congruence,
    load_spec,
    quotient,
    sigma_of,
    validate_category,
)
from hocat.congruence import Congruence, Precongruence, intransitive_triple
from hocat.errors import ValidationError
from hocat.fincat import FinCat, Mor, opposite
from hocat.fixtures import NAMES, category
from hocat.homotopy import r_left

from gencat import sample_precongruence
from oracles import (
    composable_pairs,
    brute_broken_composite,
    all_congruences,
    brute_is_congruence,
    brute_intransitive_triple,
    brute_least_congruence,
    brute_sigma,
    hom_partitions,
    parallel_pairs,
)


def test_precongruence_rejects_non_parallel():
    cat, _m, _r = category("f_retr")
    with pytest.raises(ValidationError):
        Precongruence(cat, [(cat.mor("s"), cat.mor("r"))])


def test_precongruence_canonicalizes():
    cat, _m, _r = category("f_retr")
    p = Precongruence(cat, [("e", "id:b"), ("id:b", "e"), ("e", "e")])
    e, idb = cat.mor("e"), cat.mor("id:b")
    assert p.pairs == {(min(e, idb), max(e, idb)), (e, e)}
    assert p.distinct_pairs == {(min(e, idb), max(e, idb))}


def test_union_requires_same_base():
    cat, _m, _r = category("f_retr")
    other, _m2, _r2 = category("f_iso")
    with pytest.raises(ValidationError):
        Precongruence(cat).union(Precongruence(other))


def test_equal_relations_hash_equal():
    """Relations are equal by their pairs, whatever their blocks, and
    congruences by their classes, whatever order those were given in;
    equal values hash equal, so a set keeps one of each."""
    cat = validate_category(load_spec({
        "objects": ["a", "b"], "composition": [], "weak_equivalences": [],
        "morphisms": [{"name": n, "dom": "a", "cod": "b"} for n in "fgh"]}))
    f, g, h = map(cat.mor, "fgh")
    clique = Precongruence.canonical(cat, [(f, g, h)])
    pairs = Precongruence(cat, [("h", "g"), ("f", "h"), ("g", "f")])
    assert clique.blocks != pairs.blocks
    assert clique == pairs and hash(clique) == hash(pairs)
    assert clique != Precongruence(cat, [("f", "g")])
    assert len({clique, pairs, Precongruence(cat, [("f", "g")])}) == 2

    ids = [(i,) for i in cat.identity]
    one = Congruence(cat, [*ids, (f, g, h)])
    other = Congruence(cat, [(h, f, g), *reversed(ids)])
    assert one == other and hash(one) == hash(other)
    assert one != Congruence(cat, [*ids, (f, g), (h,)])
    assert len({one, other, Congruence(cat, [*ids, (f, g), (h,)])}) == 2


def test_least_congruence_matches_oracle(mixed_corpus):
    rng = random.Random(6020)
    for cat, _members, _doc in mixed_corpus[:80]:
        seed = sample_precongruence(rng, cat)
        cong = least_congruence(Precongruence(cat, seed))
        rep = brute_least_congruence(cat, seed)
        for f, g in parallel_pairs(cat):
            assert cong.related(f, g) == (rep[f] == rep[g])


def test_least_congruence_is_minimal_by_enumeration(tiny_corpus):
    """Among all congruences containing the seed, none is strictly finer."""
    rng = random.Random(8106)
    for cat, _members, _doc in tiny_corpus:
        seed = sample_precongruence(rng, cat)
        least = least_congruence(Precongruence(cat, seed))
        least_classes = frozenset(frozenset(c) for c in least.classes)
        lattice = all_congruences(cat)
        assert least_classes in lattice
        seedset = {(min(f, g), max(f, g)) for f, g in seed}
        for classes in lattice:
            blockof = {}
            for block in classes:
                for m in block:
                    blockof[m] = block
            if all(blockof[f] is blockof[g] for f, g in seedset):
                # candidate contains the seed, so it must contain least
                assert all(blockof[f] is blockof[g] for cls in least.classes
                           for f in cls for g in cls if f < g)


def test_congruence_class_accessors():
    cat, members, _r = category("f_retr")
    cong = least_congruence(r_left(cat, members))
    e, idb = cat.mor("e"), cat.mor("id:b")
    assert cong.related(e, idb)
    assert set(cong.classes[cong.class_of[e]]) == {e, idb}
    assert cong.nonsingleton_classes() == ((min(e, idb), max(e, idb)),)
    pairs = {(f, g) for cls in cong.classes for f in cls for g in cls if f < g}
    assert (min(e, idb), max(e, idb)) in pairs


def test_congruence_partition_messages():
    """A bad partition of f_retr's arrows id:a, id:b, s, r, e fails with
    a message naming the first arrow at fault."""
    cat, _members, _raw = category("f_retr")
    cases = [
        ([(), ("id:a",), ("id:b",), ("s",), ("r",), ("e",)], "empty congruence class"),
        ([("id:a",), ("id:b", "e"), ("s",), ("r",), ("e",)],
         "morphism 'e' appears in two classes"),
        ([("id:a", "s"), ("id:b",), ("r",), ("e",)],
         "class mixing non-parallel arrows at 's'"),
        ([("id:a",), ("id:b",), ("s",), ("r",)], "partition misses morphism 'e'"),
    ]
    for classes, message in cases:
        with pytest.raises(ValidationError) as err:
            Congruence(cat, classes)
        assert str(err.value) == message


def test_discrete_congruence():
    cat, _m, _r = category("f_span")
    cong = Congruence.discrete(cat)
    assert cong.nonsingleton_classes() == ()
    assert all(cong.class_of[m] != cong.class_of[n]
               for m in range(len(cat.morphisms))
               for n in range(m + 1, len(cat.morphisms)))


def two_track_cat():
    """p, q: x -> y post-composed by injective u, so u p and u q stay apart."""
    from hocat import load_spec, validate_category
    return validate_category(load_spec({
        "objects": ["x", "y", "z"],
        "morphisms": [
            {"name": "p", "dom": "x", "cod": "y"},
            {"name": "q", "dom": "x", "cod": "y"},
            {"name": "u", "dom": "y", "cod": "z"},
            {"name": "a", "dom": "x", "cod": "z"},
            {"name": "b", "dom": "x", "cod": "z"},
        ],
        "composition": [
            {"after": "u", "before": "p", "equals": "a"},
            {"after": "u", "before": "q", "equals": "b"},
        ],
        "weak_equivalences": [],
    }))


def test_congruence_accepts_exactly_the_congruences(tiny_corpus):
    """The constructor's closure check agrees with brute enumeration on
    every partition of each hom-set."""
    for cat, _members, _doc in tiny_corpus:
        lattice = set(all_congruences(cat))
        for part in hom_partitions(cat):
            try:
                Congruence(cat, part)
                accepted = True
            except ValidationError:
                accepted = False
            assert accepted == (frozenset(map(frozenset, part)) in lattice), part


def test_congruence_rejects_each_side_alone():
    """p ~ q breaks closure under post-composition only in two_track_cat,
    under pre-composition only in its opposite."""
    cat = two_track_cat()
    op = opposite(cat)
    rest = [(m,) for m in range(3)] + [("u",), ("a",), ("b",)]
    for base, u, v in ((cat, "id:x", "u"), (op, "u", "id:x")):
        with pytest.raises(ValidationError) as exc:
            Congruence(base, [("p", "q")] + rest)
        assert str(exc.value).endswith(f"('p', 'q') composed with u={u!r}, v={v!r}")
    # Closing p ~ q adds exactly its post-composite a ~ b.
    closed = least_congruence(Precongruence(cat, {("p", "q")}))
    assert closed.nonsingleton_classes() == ((cat.mor("p"), cat.mor("q")),
                                             (cat.mor("a"), cat.mor("b")))


CLOSURE_WITNESS = re.compile(r"relation is not closed under composition: "
                             r"\('(.+)', '(.+)'\) composed with u='(.+)', v='(.+)'")


def test_congruence_names_a_closure_witness(tiny_corpus):
    """On every partition of each hom-set the constructor rejects, the
    message names a pair (rep, m) in one class and arrows u, v with
    v∘rep∘u and v∘m∘u composed, by the table, into different classes."""
    rejected = 0
    for cat, _members, _doc in tiny_corpus:
        table = cat.table
        for part in hom_partitions(cat):
            try:
                Congruence(cat, part)
                continue
            except ValidationError as exc:
                message = str(exc)
            rep, m, u, v = map(cat.mor, CLOSURE_WITNESS.fullmatch(message).groups())
            block = {x: i for i, cls in enumerate(part) for x in cls}
            assert rep != m and block[rep] == block[m], message
            assert cat.cod(u) == cat.dom(rep) and cat.dom(v) == cat.cod(rep), message
            assert block[table[table[v][rep]][u]] != block[table[table[v][m]][u]], message
            rejected += 1
    assert rejected >= 40


def _accepts(cat, classes) -> bool:
    try:
        Congruence(cat, classes)
    except ValidationError:
        return False
    return True


def test_congruence_accepts_exactly_the_congruences(tiny_corpus, mixed_corpus):
    """The constructor, which checks the generators alone, accepts a
    partition into parallel classes exactly when the oracle finds it
    closed under every composition: on every hom-set partition of the
    tiny corpus; on the least congruence of a seeded relation on each
    mixed corpus category, and on that congruence with two of its
    parallel classes merged; each also over the opposite category."""
    rng = random.Random(2024)
    cases = [(cat, hom_partitions(cat)) for cat, _members, _doc in tiny_corpus]
    for cat, _members, _doc in mixed_corpus:
        classes = least_congruence(Precongruence(cat, sample_precongruence(rng, cat))).classes
        parts = [classes]
        pool = [(a, b) for a, b in combinations(classes, 2)
                if cat.dom(a[0]) == cat.dom(b[0]) and cat.cod(a[0]) == cat.cod(b[0])]
        if pool:
            a, b = rng.choice(pool)
            parts.append([c for c in classes if c not in (a, b)] + [a + b])
        cases.append((cat, parts))
    verdicts = collections.Counter()
    for cat, parts in cases:
        op = opposite(cat)
        for part in parts:
            for base in (cat, op):
                held = brute_is_congruence(base, part)
                assert _accepts(base, part) == held, (base, part)
                verdicts[held] += 1
    assert verdicts[True] >= 500 and verdicts[False] >= 100, verdicts


def test_congruence_is_freed_without_the_collector():
    """A congruence keeps its quotient but the quotient does not point
    back, so a congruence is no reference cycle: it is freed as soon as
    its last reference goes, with the cyclic collector off."""
    cat, members, _r = category("f_retr")
    cong = least_congruence(r_left(cat, members))
    assert cong.quotient.mor_name(cong.class_of[cat.mor("e")]) == "[id:b]"
    freed = weakref.ref(cong)
    gc.disable()
    try:
        del cong
        assert freed() is None
    finally:
        gc.enable()


def _random_relation(rng, shape):
    """Distinct unordered pairs on up to 12 shuffled arrow indices."""
    arrows = rng.sample(range(40), rng.randint(0, 12))
    pairs = set()

    def clique(block):
        pairs.update((min(a, b), max(a, b)) for i, a in enumerate(block) for b in block[i + 1:])

    if shape == "path":
        pairs.update((min(a, b), max(a, b)) for a, b in zip(arrows, arrows[1:]))
        return pairs
    cut = sorted(rng.sample(range(1, len(arrows)), min(3, len(arrows) - 1))) if arrows else []
    blocks = [arrows[i:j] for i, j in zip([0] + cut, cut + [len(arrows)])]
    for block in blocks:
        clique(block)
    if shape == "missing" and pairs:
        pairs.discard(rng.choice(sorted(pairs)))
    return pairs


def test_intransitive_triple_matches_brute_force():
    """Same verdict and triple as plain nested loops on unions of
    cliques, cliques missing one edge, paths and the empty relation."""
    rng = random.Random(4242)
    failing = 0
    for shape in ("cliques", "missing", "path"):
        for _ in range(300):
            pairs = _random_relation(rng, shape)
            triple = intransitive_triple(pairs)
            assert triple == brute_intransitive_triple(pairs), (shape, sorted(pairs))
            assert shape != "cliques" or triple is None
            failing += triple is not None
    assert intransitive_triple(()) is None and brute_intransitive_triple(()) is None
    assert failing >= 200


def test_quotient_projection_and_kernel(mixed_corpus):
    rng = random.Random(7171)
    for cat, _members, _doc in mixed_corpus[:80]:
        seed = sample_precongruence(rng, cat)
        cong = least_congruence(Precongruence(cat, seed))
        q = quotient(cat, cong)
        proj = q.projection
        # functor laws are enforced on construction; spot-check transport
        for g, f in composable_pairs(cat):
            assert (proj.on_morphisms[cat.table[g][f]]
                    == q.quotient.table[proj.on_morphisms[g]][proj.on_morphisms[f]])
        back = kernel_congruence(proj)
        assert back.class_of == cong.class_of


def test_discrete_quotient_is_the_gathered_one(tiny_corpus):
    """A discrete congruence's quotient, which takes the base table as
    it stands, is the one built by reading each representative's row at
    every representative through the class map, and its projection
    carries every composite."""
    cats = [category(name)[0] for name in NAMES] + [cat for cat, _m, _d in tiny_corpus]
    for cat in cats:
        cong = Congruence.discrete(cat)
        reps, class_of = [cls[0] for cls in cong.classes], cong.class_of
        morphisms = [Mor(f"[{cat.mor_name(r)}]", cat.dom(r), cat.cod(r)) for r in reps]
        identity = [class_of[i] for i in cat.identity]
        table = [[class_of[cat.table[g][f]] if cat.table[g][f] >= 0 else -1 for f in reps]
                 for g in reps]
        assert cong.quotient == FinCat(cat.objects, morphisms, identity, table)
        assert brute_broken_composite(cat, cong.quotient, cong.projection.on_morphisms) is None


def test_quotient_names_use_lowest_representative():
    cat, members, _r = category("f_retr")
    cong = least_congruence(r_left(cat, members))
    q = quotient(cat, cong)
    assert "[id:b]" in [m.name for m in q.quotient.morphisms]
    assert q.quotient.mor_name(cong.class_of[cat.mor("e")]) == "[id:b]"


def test_sigma_matches_oracle(mixed_corpus):
    rng = random.Random(9292)
    for cat, _members, _doc in mixed_corpus[:60]:
        seed = sample_precongruence(rng, cat)
        cong = least_congruence(Precongruence(cat, seed))
        rep = brute_least_congruence(cat, seed)
        assert sigma_of(cat, cong) == brute_sigma(cat, [rep[m] for m in range(len(rep))])


def test_sigma_contains_isos_always():
    cat, _m, _r = category("f_iso")
    assert sigma_of(cat, Congruence.discrete(cat)) == frozenset(range(len(cat.morphisms)))


def test_sigma_of_checks_base():
    cat, _m, _r = category("f_iso")
    other, _m2, _r2 = category("f_retr")
    with pytest.raises(ValidationError):
        sigma_of(cat, Congruence.discrete(other))


def test_inverses_are_the_lowest_inverse_classes(mixed_corpus):
    """Each class's recorded inverse is the lowest class it composes to
    an identity with on both sides, or None; ``quotient`` checks the
    base and hands back the congruence that carries them."""
    rng = random.Random(9393)
    other, _m, _r = category("f_retr")
    for cat, _members, _doc in mixed_corpus[:60]:
        cong = least_congruence(Precongruence(cat, sample_precongruence(rng, cat)))
        table, ids = cong.quotient.table, set(cong.quotient.identity)
        for c, inverse in enumerate(cong.inverses):
            both = [d for d in range(len(cong.classes))
                    if table[d][c] in ids and table[c][d] in ids]
            assert inverse == min(both, default=None)
        assert quotient(cat, cong) is cong
        if cat != other:
            with pytest.raises(ValidationError, match="different category"):
                quotient(other, cong)
