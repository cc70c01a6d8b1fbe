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
    return compose_chain([validate_deformation(cat, members, c0, raw.deformation[0])])


def main():
    print("== a weak equivalence with no way back ==")
    chain = chain_for("f_def")
    print("ambient whitehead verdict:", Analysis(chain.cat, chain.weqs).whitehead.status)
    print("deformation is functorial:", chain.functorial)

    hocr = build_ho_cr(chain, cert0=chain.target_whitehead.certificate)
    hq = hocr.category
    print("Ho(C, r) built via route:", hocr.route)
    for x in range(len(hq.objects)):
        for y in range(len(hq.objects)):
            arrows = [hq.mor_name(m) for m in hq.hom(x, y)]
            print(f"  hom({hq.obj_name(x)}, {hq.obj_name(y)}) = {arrows}")
    print("image of every weak equivalence invertible:", check_inverts_w(hocr) is None)

    conj = check_conjugation(hocr, cert=None)
    print(f"single-arrow conjugation check ({conj.route}):", conj.status)

    print("\n== both models certified, compared directly ==")
    chain2 = chain_for("f_retr_def")
    ambient = Analysis(chain2.cat, chain2.weqs).whitehead
    print("ambient whitehead verdict:", ambient.status)
    hocr2 = build_ho_cr(chain2, cert0=chain2.target_whitehead.certificate)
    conj2 = check_conjugation(hocr2, cert=ambient.certificate)
    print(f"comparison ({conj2.route}):", conj2.status)
    print("phi sends a quotient class to its image class in Ho(C, r),")
    print("psi conjugates back along the theta arrows; both round trips")
    print("are the identity, so the two localizations are the same category.")


if __name__ == "__main__":
    main()
