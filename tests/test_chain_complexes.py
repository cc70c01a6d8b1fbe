"""The paper's model-category setting in its smallest case: bounded
chain complexes over F₂ in degrees 0..1 of dimensions at most 1, with W
the quasi-isomorphisms.

Every complex over a field is fibrant and cofibrant, so the classical
homotopy relation is "agree on homology", which the oracle computes with
plain linear algebra.  Homology inverts the quasi-isomorphisms, so the
homotopy congruence lies within it in any full subcategory; here the
two coincide.  The fork condition fails on both sides: the standard
cylinder of F₂ in degree 0 has dimensions (2, 1), outside this
subcategory, so the paper's fork route to saturation does not apply,
and saturation is checked directly.
"""

from hocat import Analysis

from gencat import chain_complex_instance
from oracles import homology_map


def test_chain_complexes_homotopy_is_agreement_on_homology():
    cat, members, _doc, maps = chain_complex_instance(max_dim=1)
    assert len(cat.objects) == 5
    assert len(cat.morphisms) == 39
    assert len(members - cat.identity_set) == 3

    classes = {}
    for k, chain_map in enumerate(maps):
        m = cat.morphisms[k]
        classes.setdefault((m.dom, m.cod, homology_map(*chain_map)), []).append(k)
    want = sorted(map(tuple, classes.values()))
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
