import copy

import pytest

from hocat import (
    build_ho_cr,
    certify_whitehead,
    check_conjugation,
    check_inverts_w,
    compose_chain,
    load_spec,
    resolve_weqs,
    subcategory,
    validate_category,
    validate_deformation,
)
from hocat.errors import ValidationError
from hocat.fixtures import category
from hocat.zigzag import BWD, FWD

from oracles import brute_ho_cr_table

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


def test_default_stage_is_the_category_itself():
    cat, members, raw = category("f_retr_def")
    d = validate_deformation(cat, members, subcategory(cat, ["a"]), raw.deformation[0])
    assert d.ambient.cat is cat
    assert d.ambient.objects == (0, 1) and d.ambient.morphisms == tuple(range(5))


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
    # a link over {e, r, s} then one over the identities alone
    l3 = validate_deformation(cat, [], c0, trivial, ambient=c0)
    assert chain.weqs == resolve_weqs(cat, ["e", "r", "s"]) != l3.weqs
    with pytest.raises(ValidationError, match="different families"):
        compose_chain([l1, l3])


def build_fixture_hocr(name):
    cat, members, raw = category(name)
    c0 = subcategory(cat, raw.subcategory["objects"])
    chain = compose_chain([validate_deformation(cat, members, c0, raw.deformation[0])])
    return cat, members, chain, chain.target_whitehead.certificate


def test_build_ho_cr_target_route():
    cat, members, chain, cert0 = build_fixture_hocr("f_def")
    hocr = build_ho_cr(chain, cert0=cert0)
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
    hocr = build_ho_cr(chain, ambient_cert=ambient_cert)
    assert hocr.route == "ambient-classes"
    assert len(hocr.category.morphisms) == 4
    # target route is also available here and gives the same shape
    hocr2 = build_ho_cr(chain, cert0=build_fixture_hocr("f_retr_def")[3])
    assert hocr2.route == "target-classes"
    assert len(hocr2.category.morphisms) == 4


def test_build_ho_cr_requires_a_certificate():
    _cat, _members, chain, _cert0 = build_fixture_hocr("f_def")
    assert build_ho_cr(chain) is None

    # the chain does not preserve composition, so the target
    # certificate alone cannot be used
    rcat, d = non_functorial_deformation()
    nf_chain = compose_chain([d])
    nf_cert0 = nf_chain.target_whitehead.certificate
    assert nf_cert0 is not None
    assert build_ho_cr(nf_chain, cert0=nf_cert0) is None

    # the ambient route still covers the non-functorial chain
    amb = certify_whitehead(rcat, ALL_RETR_W).certificate
    hocr = build_ho_cr(nf_chain, ambient_cert=amb)
    assert hocr.route == "ambient-classes"
    assert check_inverts_w(hocr) is None


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
        build_ho_cr(small, cert0=None,
                    ambient_cert=certify_whitehead(cat, ALL_RETR_W).certificate)


def two_iso_objects_times_idempotent():
    """Objects a, b joined by inverse isos u, t, times the monoid {1, e}
    with e∘e = e; W is every arrow.  A left deformation onto b sends each
    arrow to id:b or e by its monoid part, with theta_a = t, theta_b = id:b.
    """
    arrows = {"u": ("a", "b", 1), "t": ("b", "a", 1), "e": ("b", "b", "e"),
              "ea": ("a", "a", "e"), "eu": ("a", "b", "e"), "te": ("b", "a", "e")}
    name = {v: k for k, v in arrows.items()}
    name[("a", "a", 1)], name[("b", "b", 1)] = "id:a", "id:b"
    composition = [
        {"after": g, "before": f, "equals": name[(x, z, "e" if "e" in (m1, m2) else 1)]}
        for g, (y, z, m2) in arrows.items()
        for f, (x, y1, m1) in arrows.items() if y1 == y]
    on_morphisms = {k: "e" if m == "e" else "id:b" for k, (_d, _c, m) in arrows.items()}
    on_morphisms.update({"id:a": "id:b", "id:b": "id:b"})
    return {
        "objects": ["a", "b"],
        "morphisms": [{"name": k, "dom": d, "cod": c} for k, (d, c, _m) in arrows.items()],
        "composition": composition,
        "weak_equivalences": list(arrows),
        "subcategory": {"objects": ["b"]},
        "deformation": [{"direction": "left", "on_objects": {"a": "b", "b": "b"},
                         "on_morphisms": on_morphisms, "theta": {"a": "t", "b": "id:b"}}],
    }


def test_ho_cr_routes_agree_when_sub_and_parent_indices_differ():
    raw = load_spec(two_iso_objects_times_idempotent())
    cat = validate_category(raw)
    members = resolve_weqs(cat, raw.weak_equivalences)
    assert len(cat.morphisms) == 8
    chain = compose_chain([validate_deformation(cat, members, subcategory(cat, ["b"]),
                                                raw.deformation[0])])
    assert chain.functorial
    sub = chain.target
    idb, e = cat.mor("id:b"), cat.mor("e")
    assert sub.morphisms == (idb, e) == (1, 4)
    cert0 = certify_whitehead(sub.cat, [0, 1]).certificate
    ambient = certify_whitehead(cat, members).certificate
    assert cert0 is not None and ambient is not None

    by_target = build_ho_cr(chain, cert0=cert0)
    by_ambient = build_ho_cr(chain, ambient_cert=ambient)
    assert (by_target.route, by_ambient.route) == ("target-classes", "ambient-classes")
    assert by_target.category == by_ambient.category
    assert by_target.gamma.on_objects == by_ambient.gamma.on_objects
    assert by_target.gamma.on_morphisms == by_ambient.gamma.on_morphisms
    assert by_target.classes == by_ambient.classes == ((idb, e),) * 4
    for hocr in (by_target, by_ambient):
        assert check_conjugation(hocr, cert=ambient).status == "verified"


def identity_deformation(cat, members):
    """The chain of the deformation of ``cat`` onto itself by the identity."""
    names = range(len(cat.objects))
    block = {"direction": "left", "on_objects": {x: x for x in names},
             "on_morphisms": {f: f for f in range(len(cat.morphisms))},
             "theta": {x: cat.identity[x] for x in names}}
    return compose_chain([validate_deformation(cat, members, subcategory(cat, names), block)])


def test_ho_cr_table_is_every_member_composite(mixed_corpus):
    """Ho(C, r) composes through the congruence's quotient; its table
    equals the class of every member composite, by each route available
    on f_def, f_retr_def, the product above, the non-functorial
    deformation of f_retr_def, and the identity deformations of 60
    random categories, where Ho(C, r) is Ho(C)."""
    raw = load_spec(two_iso_objects_times_idempotent())
    cat = validate_category(raw)
    docs = [category("f_def"), category("f_retr_def"),
            (cat, resolve_weqs(cat, raw.weak_equivalences), raw)]
    chains = [(cat, members, compose_chain([validate_deformation(
        cat, members, subcategory(cat, raw.subcategory["objects"]), raw.deformation[0])]))
        for cat, members, raw in docs]
    rcat, d = non_functorial_deformation()
    chains.append((rcat, resolve_weqs(rcat, ALL_RETR_W), compose_chain([d])))
    chains += [(cat, members, identity_deformation(cat, members))
               for cat, members, _doc in mixed_corpus[:60]]
    routes, crowded = [], 0
    for cat, members, chain in chains:
        sub = chain.target
        cert0 = chain.target_whitehead.certificate
        ambient = certify_whitehead(cat, members).certificate
        built = []
        if chain.functorial and cert0 is not None:
            built.append((build_ho_cr(chain, cert0=cert0),
                          dict(zip(sub.morphisms, cert0.congruence.class_of))))
        if ambient is not None:
            built.append((build_ho_cr(chain, ambient_cert=ambient),
                          ambient.congruence.class_of))
        for hocr, class_of in built:
            hq = hocr.category
            table = [list(row) for row in hq.table]
            assert table == brute_ho_cr_table(hocr, class_of), hocr.route
            routes.append(hocr.route)
            crowded += any(len(hq.hom(hq.dom(f), hq.cod(f))) > 1 for f in range(len(hq.morphisms)))
    assert routes[:6] == ["target-classes"] * 2 + ["ambient-classes", "target-classes"] \
        + ["ambient-classes"] * 2
    assert crowded >= 60


def test_check_inverts_w_on_deformed_quotient():
    cat, members, chain, cert0 = build_fixture_hocr("f_def")
    hocr = build_ho_cr(chain, cert0=cert0)
    assert check_inverts_w(hocr) is None


def test_conjugation_functor_pair_route():
    cat, members, chain, _cert0 = build_fixture_hocr("f_retr_def")
    ambient_cert = certify_whitehead(cat, members).certificate
    hocr = build_ho_cr(chain, ambient_cert=ambient_cert)
    rep = check_conjugation(hocr, cert=ambient_cert)
    assert rep.status == "verified"
    assert rep.route == "functor-pair"
    assert rep.unknown_pairs == ()
    # phi and psi are mutually inverse on arrows
    for i in range(len(hocr.category.morphisms)):
        assert rep.phi.on_morphisms[rep.psi.on_morphisms[i]] == i


def test_conjugation_lemma_route():
    cat, members, chain, cert0 = build_fixture_hocr("f_def")
    hocr = build_ho_cr(chain, cert0=cert0)
    rep = check_conjugation(hocr, cert=None, budget=8)
    assert rep.status == "verified"
    assert rep.route == "zigzag-lemma"
    assert rep.unknown_pairs == ()
    assert rep.phi is None and rep.psi is None

    starved = check_conjugation(hocr, cert=None, budget=0)
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
    hocr = build_ho_cr(chain, cert0=certify_whitehead(c0.cat, ["id:a"]).certificate)
    rep = check_conjugation(hocr, cert=None, budget=8)
    assert rep.status == "verified"
    assert rep.route == "zigzag-lemma"


def test_conjugation_certificate_route_failures():
    """The certificate route fails on a Ho(C, r) built from a certificate
    of another family than the one it compares against: discrete (W the
    identities) against the homotopy congruence, and back, at each of
    its four checks."""
    cat, members, raw = category("f_retr_def")
    ambient = certify_whitehead(cat, members).certificate
    discrete = certify_whitehead(cat, []).certificate
    same = identity_deformation(cat, members)
    fine = build_ho_cr(same, cert0=discrete)
    rep = check_conjugation(fine, cert=ambient)
    assert (rep.status, rep.witness[0]) == ("failed", "gamma not constant on a homotopy class")

    # theta_b = s has no inverse in C itself
    retract = compose_chain([validate_deformation(cat, members, subcategory(cat, ["a"]),
                                                  raw.deformation[0])])
    hocr = build_ho_cr(retract, ambient_cert=ambient)
    rep = check_conjugation(hocr, cert=discrete)
    assert (rep.status, rep.witness) == ("failed", ("theta class is not invertible", cat.obj("b")))

    # The monoid {1, e}, e∘e = e: Ho(C) with W = {e} is trivial, and
    # its one arrow goes back to the identity class, never to [e].
    raw = load_spec({"objects": ["x"], "morphisms": [{"name": "e", "dom": "x", "cod": "x"}],
                     "composition": [{"after": "e", "before": "e", "equals": "e"}],
                     "weak_equivalences": ["e"]})
    cat = validate_category(raw)
    members = resolve_weqs(cat, raw.weak_equivalences)
    same = identity_deformation(cat, members)
    coarse = build_ho_cr(same, ambient_cert=certify_whitehead(cat, members).certificate)
    rep = check_conjugation(coarse, cert=certify_whitehead(cat, []).certificate)
    assert (rep.status, rep.witness) == ("failed", ("psi . phi misses the identity", cat.mor("e")))

    # Collapsing e to the identity along theta = e: Ho(C, r) of the
    # identities' certificate keeps [e], and phi sends the one class
    # of Ho(C) to [id:x], so phi . psi never reaches [e].
    collapse = compose_chain([validate_deformation(cat, members, subcategory(cat, ["x"]), {
        "direction": "left", "on_objects": {"x": "x"},
        "on_morphisms": {"id:x": "id:x", "e": "id:x"}, "theta": {"x": "e"}})])
    kept = build_ho_cr(collapse, ambient_cert=certify_whitehead(cat, []).certificate)
    rep = check_conjugation(kept, cert=certify_whitehead(cat, members).certificate)
    assert (rep.status, rep.witness) == (
        "failed", ("phi . psi misses the identity", kept.category.mor("x>x:[e]")))
    assert rep.phi is not None and rep.psi is None


def _message(call, *args, **kwargs) -> str:
    """The message of the ValidationError ``call`` raises (exit 3 from the CLI)."""
    with pytest.raises(ValidationError) as exc:
        call(*args, **kwargs)
    return str(exc.value)


def test_membership_transfer_is_checked():
    """Only a family failing two out of three reaches the transfer check:
    with s a member and r not, r∘s = id:a would force r in."""
    cat, _members, _raw = category("f_retr_def")
    assert _message(validate_deformation, cat, ["s"], subcategory(cat, ["a"]), retr_block()) == (
        "membership transfer fails at 'r': exactly one of it and its image is a weak equivalence")


def test_chain_links_share_one_category():
    cat, members, raw = category("f_retr_def")
    link = validate_deformation(cat, members, subcategory(cat, ["a"]), raw.deformation[0])
    other, omembers, oraw = category("f_def")
    olink = validate_deformation(other, omembers, subcategory(other, ["x0"]), oraw.deformation[0])
    assert _message(compose_chain, [link, olink]) == "chain links live in different categories"


def test_build_ho_cr_checks_certificate_bases():
    cat, members, chain, _cert0 = build_fixture_hocr("f_retr_def")
    foreign = certify_whitehead(*category("f_iso")[:2]).certificate
    assert chain.functorial and foreign is not None
    assert _message(build_ho_cr, chain, cert0=foreign) == (
        "target certificate is not over the target subcategory")
    assert _message(build_ho_cr, chain, ambient_cert=foreign) == (
        "ambient certificate is not over the ambient category")


def test_check_inverts_w_names_a_failing_member():
    """The identity deformation of one arrow f: a -> b, with Ho(C, r)
    built from the certificate of W the identities.  The chain's family
    is inverted when it is the identities; when it is {f}, which that
    Ho(C, r) does not invert, the check names f."""
    cat = validate_category(load_spec({
        "objects": ["a", "b"], "morphisms": [{"name": "f", "dom": "a", "cod": "b"}],
        "composition": [], "weak_equivalences": []}))
    block = {"direction": "left", "on_objects": {"a": "a", "b": "b"},
             "on_morphisms": {"id:a": "id:a", "id:b": "id:b", "f": "f"},
             "theta": {"a": "id:a", "b": "id:b"}}
    discrete = certify_whitehead(cat, []).certificate
    for family, witness in (([], None), (["f"], cat.mor("f"))):
        link = validate_deformation(cat, family, subcategory(cat, ["a", "b"]), block)
        hocr = build_ho_cr(compose_chain([link]), ambient_cert=discrete)
        assert check_inverts_w(hocr) == witness
