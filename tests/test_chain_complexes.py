"""The paper's model-category setting in its smallest cases: bounded
chain complexes over F₂ of dimensions at most 1, in degrees 0..1 (39
arrows) and in degrees 0..2 (282 arrows), with W the
quasi-isomorphisms.

Every complex over a field is fibrant and cofibrant, so the classical
homotopy relation is "agree on homology", which the oracle computes with
plain linear algebra.  Homology inverts the quasi-isomorphisms, so the
homotopy congruence lies within it in any full subcategory; here the
two coincide, and Whitehead's conclusion holds: the homotopy quotient
is the localization.  The fork condition fails on both sides: the
standard cylinder of F₂ in degree 0 has dimensions (2, 1), outside
these subcategories, so the paper's fork route to saturation does not
apply, and saturation is checked directly.  In three degrees split
generation fails too, so Whitehead is certified by inverting each
member up to homotopy, not through split factorizations.
"""

from hocat import Analysis

from gencat import chain_complex_instance
from oracles import brute_intransitive_triple, brute_one_sided_relation, homology_map


def _homology_classes(cat, maps):
    """The arrows grouped by hom-set and by the map they induce on homology."""
    classes = {}
    for k, chain_map in enumerate(maps):
        m = cat.morphisms[k]
        classes.setdefault((m.dom, m.cod, homology_map(*chain_map)), []).append(k)
    return sorted(map(tuple, classes.values()))


def test_chain_complexes_homotopy_is_agreement_on_homology():
    cat, members, _doc, maps = chain_complex_instance(max_dim=1)
    assert len(cat.objects) == 5
    assert len(cat.morphisms) == 39
    assert len(members - cat.identity_set) == 3

    want = _homology_classes(cat, maps)
    session = Analysis(cat, members)
    cong = session.congruence
    assert sorted(cong.classes) == want
    assert len(want) == 34
    assert sum(len(c) * (len(c) - 1) // 2 for c in want) == 5

    assert session.whitehead.certified
    assert session.sigma == members
    assert session.saturation.saturated
    assert session.splitgen.generated
    assert not session.fork_condition("left").ok
    assert not session.fork_condition("right").ok


def test_three_degree_chain_complexes_without_split_generation():
    """Degrees 0..2: the congruence is still agreement on homology and
    Whitehead is certified, though the members are not split-generated;
    neither fork check holds, and the closed one-sided relation is not
    transitive on either side."""
    cat, members, _doc, maps = chain_complex_instance(max_dim=1, degrees=3)
    assert len(cat.objects) == 12
    assert len(cat.morphisms) == 282
    assert len(members - cat.identity_set) == 15

    want = _homology_classes(cat, maps)
    session = Analysis(cat, members)
    assert sorted(session.congruence.classes) == want
    assert len(want) == 223
    assert sum(len(c) * (len(c) - 1) // 2 for c in want) == 62

    assert session.whitehead.certified
    assert session.sigma == members
    assert session.saturation.saturated
    assert not session.splitgen.generated
    for side in ("left", "right"):
        assert not session.fork_condition(side).ok
        assert not session.common_fork(side).ok
        triple = brute_intransitive_triple(brute_one_sided_relation(cat, members, side))
        assert triple is not None
        assert session.rc_transitive(side) == (False, triple)
