"""Walk one retract pair from raw table to localized quotient.

The running example has s: a -> b, r: b -> a with r;s = id:a and
s;r = e, an idempotent that is NOT id:b.  Declaring s, r, e as weak
equivalences makes e homotopic to id:b, and that single identification
is all the localization needs.

Run:  python3 demos/retract_walkthrough.py
"""

from hocat import Analysis, bounded_equiv, make_zigzag
from hocat.fixtures import category
from hocat.zigzag import trace_to_json


def main():
    cat, members, _raw = category("f_retr")
    names = cat.mor_name

    print("== the category ==")
    print("objects:", ", ".join(cat.objects))
    for m in range(len(cat.morphisms)):
        print(f"  {names(m)}: {cat.obj_name(cat.dom(m))} -> {cat.obj_name(cat.cod(m))}")
    print("weak equivalences:", ", ".join(sorted(names(m) for m in members)))

    # One session computes each stage below once and shares it.
    session = Analysis(cat, members)
    fam = session.family
    print("\n== family axioms ==")
    print("identities present:", fam.report.identities_ok)
    print("two out of three:", fam.report.two_of_three_ok)

    split = session.splitgen
    print("\n== split generation ==")
    for w, inv, kind in split.certificate.split_weqs:
        print(f"  {names(w)} is a {kind} with one-sided inverse {names(inv)}")
    deco = split.certificate.decompositions[cat.mor("e")]
    print("  e factors through splits as:", " then ".join(names(m) for m in deco))

    cong = session.congruence
    print("\n== homotopy classes ==")
    for cls in cong.classes:
        print("  {" + ", ".join(names(m) for m in cls) + "}")
    print("the only identification is e ~ id:b")

    res = session.whitehead
    print("\n== localization ==")
    print("whitehead verdict:", res.status)
    q = res.congruence.quotient
    print("quotient arrows:", ", ".join(
        q.quotient.mor_name(i) for i in range(len(q.quotient.morphisms))))
    for w in sorted(members):
        print(f"  inverse of [{names(w)}] is [{names(res.certificate.inverse_table[w])}]")

    print("\n== the same fact by zigzag moves ==")
    z1 = make_zigzag(cat, members, "b", [("e", "fwd")])
    z2 = make_zigzag(cat, members, "b", [("id:b", "fwd")])
    out = bounded_equiv(cat, members, z1, z2, budget=8)
    print("search verdict:", out.status)
    doc = trace_to_json(cat, out.trace)
    for mv in doc["moves"]:
        where = f"at {mv['position']}"
        extra = f" {mv['payload']}" if mv.get("payload") else ""
        print(f"  {mv['direction']:>7} {mv['move']} {where}{extra}")
    print("so the forward arrow e and id:b name the same map after localization")


if __name__ == "__main__":
    main()
