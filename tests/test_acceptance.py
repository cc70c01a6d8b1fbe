"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints one line, ``criterion NN <label>: PASS``, after its
assertions; a pytest failure on any of them is the corresponding FAIL.
All equalities are exact.
"""

import json
import os
import random
import subprocess
import sys

from hocat import (
    Precongruence,
    build_ho_cr,
    certify_whitehead,
    check_common_fork,
    check_conjugation,
    check_fork_condition,
    check_inverts_w,
    check_rc_transitive,
    check_saturation,
    check_split_generated,
    check_weq_axioms,
    compose_chain,
    homotopy_congruence,
    kernel_congruence,
    least_congruence,
    quotient,
    r_left,
    r_left_comp,
    r_right,
    subcategory,
    validate_deformation,
)
from hocat.fixtures import NAMES, category, path

from gencat import sample_precongruence
from oracles import all_congruences, brute_isomorphism, parallel_pairs, single_arrow_relation


def _passed(n, label):
    print(f"criterion {n:02d} {label}: PASS")


def test_c01_retract_category_end_to_end():
    cat, members, _ = category("f_retr")
    fam = check_weq_axioms(cat, members)
    assert fam.report.axioms_ok

    split = check_split_generated(fam)
    assert split.generated
    assert split.certificate.decompositions[cat.mor("e")] == (
        cat.mor("r"), cat.mor("s"))

    cong = homotopy_congruence(cat, members)
    assert cong.nonsingleton_classes() == ((cat.mor("id:b"), cat.mor("e")),)

    res = certify_whitehead(cat, members)
    assert res.status == "certified"

    q = quotient(cat, res.congruence)
    iso_cat, _, _ = category("f_iso")
    assert brute_isomorphism(q.quotient, iso_cat) is not None

    qcat = q.quotient
    for w in sorted(fam.members):
        cls = res.congruence.class_of[w]
        inv = res.congruence.class_of[res.certificate.inverse_table[w]]
        x, y = qcat.dom(cls), qcat.cod(cls)
        assert qcat.table[inv][cls] == qcat.identity[x]
        assert qcat.table[cls][inv] == qcat.identity[y]
    _passed(1, "retract end-to-end")


def test_c02_span_category_end_to_end():
    cat, members, _ = category("f_span")
    fam = check_weq_axioms(cat, members)
    assert fam.report.axioms_ok

    split = check_split_generated(fam)
    assert not split.generated
    assert split.missing == cat.mor("f")

    cong = homotopy_congruence(cat, members)
    assert cong.nonsingleton_classes() == ()

    res = certify_whitehead(cat, members)
    assert res.status == "failed"
    wit = res.witness
    assert (cat.obj_name(wit.source), cat.obj_name(wit.target)) == ("a", "b")
    _passed(2, "span end-to-end")


def test_c03_deformed_localization():
    cat, members, raw = category("f_def")
    c0 = subcategory(cat, raw.subcategory["objects"])
    d = validate_deformation(cat, members, c0, raw.deformation[0])
    assert d.functorial
    chain = compose_chain([d])
    hocr = build_ho_cr(chain, cert0=chain.target_whitehead.certificate)

    hq = hocr.category
    for x in range(len(hq.objects)):
        for y in range(len(hq.objects)):
            assert len(hq.hom(x, y)) == 1

    assert check_inverts_w(hocr) is None

    iso_cat, _, _ = category("f_iso")
    assert brute_isomorphism(hq, iso_cat) is not None
    _passed(3, "deformed localization")


def test_c04_zigzag_search_matches_algebra(split_corpus):
    for name in NAMES:
        cat, members, _ = category(name)
        cong = homotopy_congruence(cat, members)
        rel = single_arrow_relation(cat, members, 8)
        for f, g in parallel_pairs(cat):
            assert ((f, g) in rel) == cong.related(f, g), name

    mismatches = 0
    for cat, members, _doc in split_corpus:
        cong = homotopy_congruence(cat, members)
        rel = single_arrow_relation(cat, members, 8)
        for f, g in parallel_pairs(cat):
            if ((f, g) in rel) != cong.related(f, g):
                mismatches += 1
    assert mismatches == 0
    assert len(split_corpus) >= 200
    _passed(4, "zigzag search agrees with the algebraic relation")


def test_c05_quotient_kernel_adjunction(mixed_corpus, tiny_corpus):
    rng = random.Random(40414)
    for cat, _members, _doc in mixed_corpus:
        seed = Precongruence(cat, sample_precongruence(rng, cat))
        least = least_congruence(seed)
        assert all(least.related(f, g) for f, g in seed.pairs)
        proj = quotient(cat, least).projection
        assert kernel_congruence(proj) == least

    for cat, _members, _doc in tiny_corpus:
        seed = Precongruence(cat, sample_precongruence(rng, cat))
        least = least_congruence(seed)
        lattice = all_congruences(cat)
        blocks = frozenset(frozenset(c) for c in least.classes)
        assert blocks in lattice
        for cand in lattice:
            cls_of = {}
            for block in cand:
                for m in block:
                    cls_of[m] = block
            if all(cls_of[f] is cls_of[g] for f, g in seed.pairs):
                assert all(cls_of[f] is cls_of[g] for cls in least.classes
                           for f in cls for g in cls if f < g)
    assert len(mixed_corpus) >= 200
    _passed(5, "quotient-kernel adjunction and minimality")


def test_c06_one_sided_relations_coincide(split_corpus):
    checked = 0
    for name in NAMES:
        cat, members, _ = category(name)
        fam = check_weq_axioms(cat, members)
        if not (fam.report.axioms_ok and check_split_generated(fam).generated):
            continue
        want = homotopy_congruence(cat, members)
        assert least_congruence(r_left(cat, members)) == want, name
        assert least_congruence(r_right(cat, members)) == want, name
        checked += 1
    assert checked >= 4

    for cat, members, _doc in split_corpus:
        want = homotopy_congruence(cat, members)
        assert least_congruence(r_left(cat, members)) == want
        assert least_congruence(r_right(cat, members)) == want
    _passed(6, "left, right, and two-sided congruences coincide")


def test_c07_fork_logic(mixed_corpus):
    fixtures = [category(name)[:2] for name in NAMES]
    instances = fixtures + [(cat, members) for cat, members, _doc in mixed_corpus]
    common_hits = fork_hits = 0
    for cat, members in instances:
        fam = check_weq_axioms(cat, members)
        if not fam.report.axioms_ok:
            continue
        for side in ("left", "right"):
            if check_common_fork(cat, members, side).ok:
                ok, triple = check_rc_transitive(cat, members, side)
                assert ok, triple
                common_hits += 1
        if check_fork_condition(cat, members, "left").ok:
            rel = r_left_comp(cat, members)
            for f, g in rel.pairs:
                assert (f in fam.members) == (g in fam.members)
            fork_hits += 1
    assert common_hits >= 20 and fork_hits >= 20
    _passed(7, "fork condition implies transitivity and membership transfer")


def test_c08_saturation(split_corpus):
    cat, members, _ = category("f_z2")
    res = certify_whitehead(cat, members)
    rep = check_saturation(cat, members, res.certificate)
    assert not rep.saturated
    assert rep.violations == (cat.mor("t"),)

    predicted_hits = 0
    instances = [category(name)[:2] for name in NAMES]
    instances += [(c, m) for c, m, _doc in split_corpus[:120]]
    for icat, imembers in instances:
        fam = check_weq_axioms(icat, imembers)
        if not (fam.report.axioms_ok and fam.report.weak_invertibility_ok):
            continue
        if not check_split_generated(fam).generated:
            continue
        if not (check_fork_condition(icat, imembers, "left").ok
                and check_fork_condition(icat, imembers, "right").ok):
            continue
        wres = certify_whitehead(icat, imembers)
        assert wres.certified
        srep = check_saturation(icat, imembers, wres.certificate)
        assert srep.predicted and srep.saturated
        predicted_hits += 1
    assert predicted_hits >= 20
    _passed(8, "saturation verdicts")


def test_c09_comparison_functors_mutually_inverse():
    cat, members, raw = category("f_retr_def")
    ambient = certify_whitehead(cat, members)
    assert ambient.certified

    c0 = subcategory(cat, raw.subcategory["objects"])
    chain = compose_chain([validate_deformation(cat, members, c0, raw.deformation[0])])
    target = chain.target_whitehead
    assert target.certified

    hocr = build_ho_cr(chain, cert0=target.certificate, ambient_cert=ambient.certificate)
    rep = check_conjugation(hocr, cert=ambient.certificate)
    assert rep.status == "verified" and rep.route == "functor-pair"
    hq, qcat = hocr.category, quotient(cat, ambient.congruence).quotient
    assert len(hq.morphisms) == len(qcat.morphisms)
    for i in range(len(hq.morphisms)):
        assert rep.phi.on_morphisms[rep.psi.on_morphisms[i]] == i
    for i in range(len(qcat.morphisms)):
        assert rep.psi.on_morphisms[rep.phi.on_morphisms[i]] == i
    _passed(9, "comparison functors are mutually inverse")


def test_c10_analyze_is_deterministic():
    env = dict(os.environ)
    env.pop("HOCAT_BUDGET", None)
    for name in NAMES:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "hocat", "analyze", str(path(name)),
                 "--format", "json"],
                capture_output=True, text=True, env=env, timeout=120)
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0, name
        assert runs[0].stdout == runs[1].stdout, name
        json.loads(runs[0].stdout)
    _passed(10, "analyze output is byte-stable")
