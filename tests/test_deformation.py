import copy

import pytest

from hocat import (
    build_ho_cr,
    certify_whitehead,
    check_conjugation,
    check_inverts_w,
    compose_chain,
    subcategory,
    validate_deformation,
)
from hocat.errors import ValidationError
from hocat.fixtures import category
from hocat.zigzag import BWD, FWD

ALL_RETR_W = ["s", "r", "e", "id:a", "id:b"]


def retr_block():
    _cat, _members, raw = category("f_retr_def")
    return copy.deepcopy(raw.deformation[0])


def test_validate_deformation_happy_path():
    cat, members, raw = category("f_retr_def")
    c0 = subcategory(cat, ["a"])
    d = validate_deformation(cat, members, c0, raw.deformation[0])
    assert d.direction == "left"
    assert d.functorial
    assert d.theta[cat.obj("b")] == cat.mor("s")
    assert d.on_morphisms[cat.mor("e")] == cat.mor("id:a")
    assert set(d.ambient.objects) == {0, 1}


def test_validate_deformation_rejections():
    cat, members, _raw = category("f_retr_def")
    c0 = subcategory(cat, ["a"])

    block = retr_block()
    block["direction"] = "sideways"
    with pytest.raises(ValidationError, match="direction"):
        validate_deformation(cat, members, c0, block)

    block = retr_block()
    del block["on_objects"]["b"]
    with pytest.raises(ValidationError, match="every stage object"):
        validate_deformation(cat, members, c0, block)

    block = retr_block()
    block["on_objects"]["b"] = "b"
    with pytest.raises(ValidationError, match="not in the target"):
        validate_deformation(cat, members, c0, block)

    block = retr_block()
    block["theta"]["b"] = "r"
    with pytest.raises(ValidationError, match="wrong endpoints"):
        validate_deformation(cat, members, c0, block)

    block = retr_block()
    with pytest.raises(ValidationError, match="not a weak equivalence"):
        validate_deformation(cat, ["r", "e"], c0, block)

    block = retr_block()
    block["on_morphisms"]["s"] = "s"
    with pytest.raises(ValidationError, match="not in the target"):
        validate_deformation(cat, members, c0, block)

    other, _m, _r = category("f_iso")
    with pytest.raises(ValidationError, match="different category"):
        validate_deformation(cat, members, subcategory(other, ["a"]), retr_block())


def test_validate_deformation_checks_naturality():
    cat, _members, _raw = category("f_z2")
    c0 = subcategory(cat, ["x"])
    block = {
        "direction": "left",
        "on_objects": {"x": "x"},
        "on_morphisms": {"id:x": "id:x", "t": "id:x"},
        "theta": {"x": "t"},
    }
    with pytest.raises(ValidationError, match="naturality"):
        validate_deformation(cat, ["t"], c0, block)
    block["on_morphisms"]["t"] = "t"
    d = validate_deformation(cat, ["t"], c0, block)
    assert d.functorial


def test_stage_restriction_errors():
    cat, _members, _raw = category("f_retr_def")
    stage = subcategory(cat, ["a"])
    block = {
        "direction": "left",
        "on_objects": {"a": "a", "b": "a"},
        "on_morphisms": {"id:a": "id:a"},
        "theta": {"a": "id:a"},
    }
    with pytest.raises(ValidationError, match="outside its stage"):
        validate_deformation(cat, ALL_RETR_W, stage, block, ambient=stage)


def non_functorial_deformation():
    """Collapse e to id:b while fixing everything else.

    Naturality tolerates the swap because e absorbs both candidates,
    but r(s;r) = id:b while rs;rr = e, so composition is not preserved.
    """
    cat, _members, _raw = category("f_retr_def")
    full = subcategory(cat, ["a", "b"])
    block = {
        "direction": "left",
        "on_objects": {"a": "a", "b": "b"},
        "on_morphisms": {"id:a": "id:a", "id:b": "id:b",
                         "s": "s", "r": "r", "e": "id:b"},
        "theta": {"a": "id:a", "b": "e"},
    }
    d = validate_deformation(cat, ALL_RETR_W, full, block)
    return cat, d


def test_non_functorial_deformation_is_detected():
    _cat, d = non_functorial_deformation()
    assert not d.functorial


def test_compose_chain_single_and_double():
    cat, _members, raw = category("f_retr_def")
    c0 = subcategory(cat, ["a"])
    l1 = validate_deformation(cat, ALL_RETR_W, c0, raw.deformation[0])
    chain = compose_chain([l1])
    a, b = cat.obj("a"), cat.obj("b")
    assert chain.functorial
    assert chain.on_objects == {a: a, b: a}
    assert chain.thetas[b].steps == ((cat.mor("s"), FWD),)
    assert chain.thetas[a].steps == ((cat.mor("id:a"), FWD),)

    trivial = {
        "direction": "left",
        "on_objects": {"a": "a"},
        "on_morphisms": {"id:a": "id:a"},
        "theta": {"a": "id:a"},
    }
    l2 = validate_deformation(cat, ALL_RETR_W, c0, trivial, ambient=c0)
    chain2 = compose_chain([l1, l2])
    assert chain2.on_objects == {a: a, b: a}
    assert chain2.thetas[b].steps == ((cat.mor("id:a"), FWD), (cat.mor("s"), FWD))

    with pytest.raises(ValidationError, match="at least one link"):
        compose_chain([])
    with pytest.raises(ValidationError, match="do not compose"):
        compose_chain([l2, l1])


def build_fixture_hocr(name):
    cat, members, raw = category(name)
    c0 = subcategory(cat, raw.subcategory["objects"])
    chain = compose_chain([validate_deformation(cat, members, c0, raw.deformation[0])])
    sub = chain.target
    sub_members = [i for i, m in enumerate(sub.morphisms) if m in members]
    cert0 = certify_whitehead(sub.cat, sub_members).certificate
    return cat, members, chain, cert0


def test_build_ho_cr_target_route():
    cat, members, chain, cert0 = build_fixture_hocr("f_def")
    hocr = build_ho_cr(cat, members, chain, cert0=cert0)
    assert hocr.route == "target-classes"
    hq = hocr.category
    assert len(hq.morphisms) == 4
    for x in range(len(hq.objects)):
        for y in range(len(hq.objects)):
            assert len(hq.hom(x, y)) == 1
    g = hocr.gamma.on_morphisms[cat.mor("theta")]
    assert (hq.dom(g), hq.cod(g)) == (cat.obj("x0"), cat.obj("x1"))
    for mem in hocr.classes:
        assert mem == (cat.mor("id:x0"),)


def test_build_ho_cr_ambient_route():
    cat, members, chain, _cert0 = build_fixture_hocr("f_retr_def")
    ambient_cert = certify_whitehead(cat, members).certificate
    assert ambient_cert is not None
    hocr = build_ho_cr(cat, members, chain, ambient_cert=ambient_cert)
    assert hocr.route == "ambient-classes"
    assert len(hocr.category.morphisms) == 4
    # target route is also available here and gives the same shape
    hocr2 = build_ho_cr(cat, members, chain,
                        cert0=build_fixture_hocr("f_retr_def")[3])
    assert hocr2.route == "target-classes"
    assert len(hocr2.category.morphisms) == 4


def test_build_ho_cr_requires_a_certificate():
    cat, members, chain, cert0 = build_fixture_hocr("f_def")
    with pytest.raises(ValidationError) as exc:
        build_ho_cr(cat, members, chain)
    assert "requires functorial chain or ambient certificate" in str(exc.value)

    rcat, d = non_functorial_deformation()
    nf_chain = compose_chain([d])
    sub = nf_chain.target
    sub_members = [i for i, m in enumerate(sub.morphisms) if m in ALL_RETR_W
                   or rcat.mor_name(m) in ALL_RETR_W]
    nf_cert0 = certify_whitehead(sub.cat, sub_members).certificate
    assert nf_cert0 is not None
    with pytest.raises(ValidationError) as exc:
        build_ho_cr(rcat, ALL_RETR_W, nf_chain, cert0=nf_cert0)
    assert "does not preserve composition" in str(exc.value)

    # the ambient route still covers the non-functorial chain
    amb = certify_whitehead(rcat, ALL_RETR_W).certificate
    hocr = build_ho_cr(rcat, ALL_RETR_W, nf_chain, ambient_cert=amb)
    assert hocr.route == "ambient-classes"
    assert check_inverts_w(hocr, ALL_RETR_W).ok


def test_build_ho_cr_needs_full_start():
    cat, _members, _raw = category("f_retr_def")
    c0 = subcategory(cat, ["a"])
    trivial = {
        "direction": "left",
        "on_objects": {"a": "a"},
        "on_morphisms": {"id:a": "id:a"},
        "theta": {"a": "id:a"},
    }
    small = compose_chain([validate_deformation(cat, ALL_RETR_W, c0, trivial,
                                                ambient=c0)])
    with pytest.raises(ValidationError, match="whole category"):
        build_ho_cr(cat, ALL_RETR_W, small, cert0=None,
                    ambient_cert=certify_whitehead(cat, ALL_RETR_W).certificate)


def test_check_inverts_w_on_deformed_quotient():
    cat, members, chain, cert0 = build_fixture_hocr("f_def")
    hocr = build_ho_cr(cat, members, chain, cert0=cert0)
    rep = check_inverts_w(hocr, members)
    assert rep.ok and rep.witness is None


def test_conjugation_functor_pair_route():
    cat, members, chain, _cert0 = build_fixture_hocr("f_retr_def")
    ambient_cert = certify_whitehead(cat, members).certificate
    hocr = build_ho_cr(cat, members, chain, ambient_cert=ambient_cert)
    rep = check_conjugation(cat, members, chain, hocr, cert=ambient_cert)
    assert rep.status == "verified"
    assert rep.route == "functor-pair"
    assert rep.unknown_pairs == ()
    # phi and psi are mutually inverse on arrows
    for i in range(len(hocr.category.morphisms)):
        assert rep.phi.on_morphisms[rep.psi.on_morphisms[i]] == i


def test_conjugation_lemma_route():
    cat, members, chain, cert0 = build_fixture_hocr("f_def")
    hocr = build_ho_cr(cat, members, chain, cert0=cert0)
    rep = check_conjugation(cat, members, chain, hocr, cert=None, budget=8)
    assert rep.status == "verified"
    assert rep.route == "zigzag-lemma"
    assert rep.unknown_pairs == ()
    assert rep.phi is None and rep.psi is None

    starved = check_conjugation(cat, members, chain, hocr, cert=None, budget=0)
    assert starved.status == "unknown"
    assert cat.mor("theta") in starved.unknown_pairs


def test_conjugation_lemma_route_right_deformation():
    cat, _members, _raw = category("f_retr_def")
    full = subcategory(cat, ["a", "b"])
    c0 = subcategory(cat, ["a"])
    block = {
        "direction": "right",
        "on_objects": {"a": "a", "b": "a"},
        "on_morphisms": {"id:a": "id:a", "id:b": "id:a",
                         "s": "id:a", "r": "id:a", "e": "id:a"},
        "theta": {"a": "id:a", "b": "r"},
    }
    d = validate_deformation(cat, ALL_RETR_W, c0, block, ambient=full)
    assert d.direction == "right" and d.functorial
    chain = compose_chain([d])
    b = cat.obj("b")
    assert chain.thetas[b].steps == ((cat.mor("r"), BWD),)
    hocr = build_ho_cr(cat, ALL_RETR_W, chain,
                       cert0=certify_whitehead(c0.cat, ["id:a"]).certificate)
    rep = check_conjugation(cat, ALL_RETR_W, chain, hocr, cert=None, budget=8)
    assert rep.status == "verified"
    assert rep.route == "zigzag-lemma"
