"""Localize through a deformation when the quotient alone cannot.

First example: two objects x0, x1 joined by a single weak equivalence
theta with nothing going back.  No backward arrow exists in the
category, so the plain homotopy quotient cannot invert theta and the
Whitehead check fails.  A left deformation retracting everything onto
x0 repairs this: the deformed quotient Ho(C, r) has one arrow in every
hom-set and theta's image is invertible.

Second example: the retract category again, where both the ambient
category and the deformation target are certified.  There the two
models of the localization are compared head on and shown isomorphic
by an explicit functor pair.

Run:  python3 demos/deformation_walkthrough.py
"""

from hocat import (
    Analysis,
    build_ho_cr,
    check_conjugation,
    check_inverts_w,
    compose_chain,
    subcategory,
    validate_deformation,
)
from hocat.fixtures import category


def chain_for(name):
    cat, members, raw = category(name)
    c0 = subcategory(cat, raw.subcategory["objects"])
    link = validate_deformation(cat, members, c0, raw.deformation[0])
    return cat, members, compose_chain([link])


def target_certificate(cat, members, chain):
    sub = chain.target
    sub_members = [i for i, m in enumerate(sub.morphisms) if m in members]
    return Analysis(sub.cat, sub_members).whitehead.certificate


def main():
    print("== a weak equivalence with no way back ==")
    cat, members, chain = chain_for("f_def")
    print("ambient whitehead verdict:", Analysis(cat, members).whitehead.status)
    print("deformation is functorial:", chain.functorial)

    hocr = build_ho_cr(cat, members, chain,
                       cert0=target_certificate(cat, members, chain))
    hq = hocr.category
    print("Ho(C, r) built via route:", hocr.route)
    for x in range(len(hq.objects)):
        for y in range(len(hq.objects)):
            arrows = [hq.mor_name(m) for m in hq.hom(x, y)]
            print(f"  hom({hq.obj_name(x)}, {hq.obj_name(y)}) = {arrows}")
    rep = check_inverts_w(hocr, members)
    print("image of every weak equivalence invertible:", rep.ok)

    conj = check_conjugation(cat, members, chain, hocr, cert=None)
    print(f"single-arrow conjugation check ({conj.route}):", conj.status)

    print("\n== both models certified, compared directly ==")
    cat2, members2, chain2 = chain_for("f_retr_def")
    ambient = Analysis(cat2, members2).whitehead
    print("ambient whitehead verdict:", ambient.status)
    hocr2 = build_ho_cr(cat2, members2, chain2,
                        cert0=target_certificate(cat2, members2, chain2))
    conj2 = check_conjugation(cat2, members2, chain2, hocr2,
                              cert=ambient.certificate)
    print(f"comparison ({conj2.route}):", conj2.status)
    print("phi sends a quotient class to its image class in Ho(C, r),")
    print("psi conjugates back along the theta arrows; both round trips")
    print("are the identity, so the two localizations are the same category.")


if __name__ == "__main__":
    main()
