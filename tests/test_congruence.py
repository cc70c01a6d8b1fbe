import random

import pytest

from hocat import (
    kernel_congruence,
    least_congruence,
    quotient,
    sigma_of,
)
from hocat.congruence import Congruence, Precongruence, intransitive_triple
from hocat.errors import ValidationError
from hocat.fincat import opposite
from hocat.fixtures import category
from hocat.homotopy import r_left

from gencat import sample_precongruence
from oracles import (
    all_congruences,
    brute_intransitive_triple,
    brute_least_congruence,
    brute_sigma,
    hom_partitions,
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


def test_least_congruence_matches_oracle(mixed_corpus):
    rng = random.Random(6020)
    for cat, _members, _doc in mixed_corpus[:80]:
        seed = sample_precongruence(rng, cat)
        cong = least_congruence(Precongruence(cat, seed))
        rep = brute_least_congruence(cat, seed)
        for f, g in cat.parallel_pairs():
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
                for f, g in least.as_pairs():
                    assert blockof[f] is blockof[g]


def test_congruence_class_accessors():
    cat, members, _r = category("f_retr")
    cong = least_congruence(r_left(cat, members))
    e, idb = cat.mor("e"), cat.mor("id:b")
    assert cong.related(e, idb)
    assert set(cong.classes[cong.class_of[e]]) == {e, idb}
    assert cong.nonsingleton_classes() == ((min(e, idb), max(e, idb)),)
    assert (min(e, idb), max(e, idb)) in cong.as_pairs()


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
        for g, f in cat.composable_pairs():
            assert (proj.on_morphisms[cat.table[g][f]]
                    == q.quotient.table[proj.on_morphisms[g]][proj.on_morphisms[f]])
        back = kernel_congruence(proj)
        assert back.class_of == cong.class_of


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
