"""Pointwise deformations onto a subcategory and the deformed quotient.

A deformation retracts a stage of the ambient category onto a target
subcategory: r sends objects and arrows into the target while a chosen
weak equivalence theta_X ties rX to X, pointing out of rX for the left
kind and into it for the right kind.  Naturality is checked one square
at a time; nothing assumes r preserves composition, that property is
measured and recorded instead.

Chains compose stage by stage, each link deforming the previous link's
target, so the composite theta is a zigzag rather than a single arrow.
When the composite is functorial and the final target carries a
certified homotopy congruence, the deformed quotient Ho(C, r) is built
from those classes; a certificate on the ambient category is the
fallback route for non-functorial chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from .congruence import Congruence, quotient
from .errors import ValidationError
from .fincat import DIRECTIONS, CatFunctor, FinCat, Subcategory, resolve_weqs, subcategory
from .homotopy import WhiteheadCertificate
from .zigzag import BWD, FWD, Zigzag, bounded_equiv, make_zigzag

__all__ = [
    "Deformation", "DeformationChain", "HoCr", "InversionReport",
    "ConjugationReport", "validate_deformation", "compose_chain",
    "build_ho_cr", "check_inverts_w", "check_conjugation",
]


@dataclass(frozen=True, eq=False)
class Deformation:
    """One validated pointwise deformation of ``ambient`` onto ``target``.

    The maps are dicts over parent indices, total on the ambient stage.
    ``functorial`` is computed from the data, never taken on trust.
    """

    cat: FinCat
    weqs: frozenset[int]
    direction: str
    ambient: Subcategory
    target: Subcategory
    on_objects: dict[int, int]
    on_morphisms: dict[int, int]
    theta: dict[int, int]
    functorial: bool


def _functor_laws(cat: FinCat, ambient: Subcategory, on_mor: dict) -> bool:
    for x in ambient.objects:
        rid = on_mor[cat.identity[x]]
        if rid != cat.identity[cat.dom(rid)]:
            return False
    mors = ambient.morphisms
    for g in mors:
        for f in mors:
            c = cat.table[g][f]
            if c >= 0 and on_mor[c] != cat.table[on_mor[g]][on_mor[f]]:
                return False
    return True


def validate_deformation(cat: FinCat, weqs, c0: Subcategory, data,
                         *, ambient: Subcategory | None = None) -> Deformation:
    """Check one deformation block against its stage and target.

    ``data`` carries direction plus name-keyed on_objects/on_morphisms/
    theta maps.  Every object and arrow of the stage must be mapped, the
    images must land in the target, each theta_X must be a weak
    equivalence placed by the direction, and every naturality square
    must commute.  Membership transfer (rf in W iff f in W) is asserted
    exhaustively even though it follows from two out of three.
    """
    members = resolve_weqs(cat, weqs)
    if ambient is None:
        ambient = subcategory(cat, range(len(cat.objects)))
    if c0.parent is not cat and c0.parent != cat:
        raise ValidationError("deformation target lives in a different category")

    direction = data["direction"]
    if direction not in DIRECTIONS:
        raise ValidationError(f"deformation direction must be one of {DIRECTIONS}")
    left = direction == "left"

    amb_objs, amb_mors = set(ambient.objects), set(ambient.morphisms)
    tgt_objs, tgt_mors = set(c0.objects), set(c0.morphisms)

    on_obj: dict[int, int] = {}
    for k, v in data["on_objects"].items():
        x, rx = cat.obj(k), cat.obj(v)
        if x not in amb_objs:
            raise ValidationError(f"deformation maps object {k!r} outside its stage")
        if rx not in tgt_objs:
            raise ValidationError(f"deformation sends {k!r} to {v!r}, not in the target")
        on_obj[x] = rx
    missing = amb_objs - set(on_obj)
    if missing:
        name = cat.obj_name(min(missing))
        raise ValidationError(f"deformation must map every stage object: missing {name!r}")

    theta: dict[int, int] = {}
    for k, v in data["theta"].items():
        x, t = cat.obj(k), cat.mor(v)
        if x not in amb_objs:
            raise ValidationError(f"theta given for object {k!r} outside its stage")
        if t not in amb_mors:
            raise ValidationError(f"theta component {v!r} is not an arrow of the stage")
        if t not in members:
            raise ValidationError(f"theta component {v!r} is not a weak equivalence")
        want = (on_obj[x], x) if left else (x, on_obj[x])
        if (cat.dom(t), cat.cod(t)) != want:
            raise ValidationError(
                f"theta component {v!r} at {k!r} has the wrong endpoints "
                f"for a {direction} deformation")
        theta[x] = t
    missing = amb_objs - set(theta)
    if missing:
        name = cat.obj_name(min(missing))
        raise ValidationError(f"theta must cover every stage object: missing {name!r}")

    on_mor: dict[int, int] = {}
    for k, v in data["on_morphisms"].items():
        f, rf = cat.mor(k), cat.mor(v)
        if f not in amb_mors:
            raise ValidationError(f"deformation maps arrow {k!r} outside its stage")
        if rf not in tgt_mors:
            raise ValidationError(f"deformation sends {k!r} to {v!r}, not in the target")
        if cat.dom(rf) != on_obj[cat.dom(f)] or cat.cod(rf) != on_obj[cat.cod(f)]:
            raise ValidationError(f"image of {k!r} has endpoints off the retracted objects")
        on_mor[f] = rf
    missing = amb_mors - set(on_mor)
    if missing:
        name = cat.mor_name(min(missing))
        raise ValidationError(f"deformation must map every stage arrow: missing {name!r}")

    for f in ambient.morphisms:
        x, y = cat.dom(f), cat.cod(f)
        if left:
            lhs, rhs = cat.table[f][theta[x]], cat.table[theta[y]][on_mor[f]]
        else:
            lhs, rhs = cat.table[theta[y]][f], cat.table[on_mor[f]][theta[x]]
        if lhs != rhs:
            raise ValidationError(
                f"naturality square fails at {cat.mor_name(f)!r}: "
                f"{cat.mor_name(lhs)!r} != {cat.mor_name(rhs)!r}")

    for f in ambient.morphisms:
        if (f in members) != (on_mor[f] in members):
            raise ValidationError(
                f"membership transfer fails at {cat.mor_name(f)!r}: exactly one of "
                f"it and its image is a weak equivalence")

    return Deformation(
        cat=cat, weqs=members, direction=direction, ambient=ambient, target=c0,
        on_objects=on_obj, on_morphisms=on_mor, theta=theta,
        functorial=_functor_laws(cat, ambient, on_mor))


@dataclass(frozen=True, eq=False)
class DeformationChain:
    """Composite of one or more deformations, innermost target last.

    ``thetas`` holds, per starting object X, the zigzag from the fully
    retracted rX back to X obtained by stringing the stage thetas
    together.  ``functorial`` reflects the composite maps themselves.
    """

    cat: FinCat
    weqs: frozenset[int]
    links: tuple[Deformation, ...]
    target: Subcategory
    on_objects: dict[int, int]
    on_morphisms: dict[int, int]
    thetas: dict[int, Zigzag]
    functorial: bool


def compose_chain(links) -> DeformationChain:
    """Compose deformations whose stages match up end to end."""
    links = tuple(links)
    if not links:
        raise ValidationError("a deformation chain needs at least one link")
    cat = links[0].cat
    for d in links[1:]:
        if d.cat != cat:
            raise ValidationError("chain links live in different categories")
    for prev, nxt in zip(links, links[1:]):
        if (set(nxt.ambient.objects) != set(prev.target.objects)
                or set(nxt.ambient.morphisms) != set(prev.target.morphisms)):
            raise ValidationError(
                "chain links do not compose: a stage differs from the previous target")

    weqs = links[0].weqs
    on_obj: dict[int, int] = {}
    on_mor: dict[int, int] = {}
    for x in links[0].ambient.objects:
        cur = x
        for d in links:
            cur = d.on_objects[cur]
        on_obj[x] = cur
    for f in links[0].ambient.morphisms:
        cur = f
        for d in links:
            cur = d.on_morphisms[cur]
        on_mor[f] = cur

    thetas: dict[int, Zigzag] = {}
    for x in links[0].ambient.objects:
        stage = [x]
        for d in links:
            stage.append(d.on_objects[stage[-1]])
        steps = []
        for i in range(len(links) - 1, -1, -1):
            d = links[i]
            t = d.theta[stage[i]]
            steps.append((t, FWD if d.direction == "left" else BWD))
        z = make_zigzag(cat, weqs, stage[-1], steps)
        if z.target != x:
            raise RuntimeError("internal inconsistency: composite theta misses its object")
        thetas[x] = z

    return DeformationChain(
        cat=cat, weqs=weqs, links=links, target=links[-1].target,
        on_objects=on_obj, on_morphisms=on_mor, thetas=thetas,
        functorial=_functor_laws(cat, links[0].ambient, on_mor))


@dataclass(frozen=True, eq=False)
class HoCr:
    """The deformed quotient: one arrow per homotopy class of target arrows.

    Arrows X -> Y are the classes of target arrows rX -> rY; ``route``
    records whether the classes came from a certificate on the target
    ("target-classes") or on the ambient category ("ambient-classes").
    ``classes`` lists, per arrow, the parent-category arrows in that
    class.  ``gamma`` is the induced functor f |-> [rf].
    """

    category: FinCat
    gamma: CatFunctor
    chain: DeformationChain
    route: str
    classes: tuple[tuple[int, ...], ...]


def _route_classes(cat, chain, class_of, members_of, label):
    """Assemble the quotient shape shared by both certificate routes.

    class_of / members_of / label speak parent indices throughout.
    """
    from .fincat import Mor

    tgt = set(chain.target.morphisms)
    n_obj = len(cat.objects)
    index: dict[tuple[int, int, int], int] = {}
    entries = []
    for x in range(n_obj):
        for y in range(n_obj):
            rx, ry = chain.on_objects[x], chain.on_objects[y]
            seen = []
            for m in chain.target.morphisms:
                if cat.dom(m) == rx and cat.cod(m) == ry:
                    c = class_of(m)
                    if c not in seen:
                        seen.append(c)
            for c in sorted(seen):
                index[(x, y, c)] = len(entries)
                entries.append((x, y, c))

    names = []
    mors = []
    memberships = []
    for x, y, c in entries:
        mem = tuple(m for m in members_of(c) if m in tgt)
        memberships.append(mem)
        names.append(f"{cat.obj_name(x)}>{cat.obj_name(y)}:{label(c)}")
        mors.append(Mor(names[-1], x, y))
    identity = tuple(index[(x, x, class_of(cat.identity[chain.on_objects[x]]))]
                     for x in range(n_obj))

    k = len(entries)
    table = [[-1] * k for _ in range(k)]
    for gi, (y2, z, c2) in enumerate(entries):
        for fi, (x, y1, c1) in enumerate(entries):
            if y1 != y2:
                continue
            reps1, reps2 = memberships[fi], memberships[gi]
            want = None
            for a in reps1:
                for b in reps2:
                    got = class_of(cat.table[b][a])
                    if want is None:
                        want = got
                    elif got != want:
                        raise RuntimeError(
                            "internal inconsistency: composite class depends on "
                            "the chosen representatives")
            table[gi][fi] = index[(x, z, want)]

    hocat = FinCat(cat.objects, tuple(mors), identity, table)
    gamma_mors = tuple(
        index[(cat.dom(f), cat.cod(f), class_of(chain.on_morphisms[f]))]
        for f in range(len(cat.morphisms)))
    gamma = CatFunctor(cat, hocat, on_objects=tuple(range(n_obj)),
                       on_morphisms=gamma_mors)
    return hocat, gamma, tuple(memberships)


def build_ho_cr(cat: FinCat, weqs, chain: DeformationChain,
                cert0: WhiteheadCertificate | None = None,
                ambient_cert: WhiteheadCertificate | None = None) -> HoCr:
    """Materialize Ho(C, r) from certified homotopy classes.

    The preferred route needs a functorial chain and a certificate over
    the target subcategory; with only an ambient certificate the classes
    are cut from the ambient congruence instead, which also covers
    non-functorial chains.
    """
    if len(chain.on_objects) != len(cat.objects):
        raise ValidationError("the chain must start from the whole category")

    if chain.functorial and cert0 is not None:
        sub = chain.target
        if cert0.congruence.base != sub.cat:
            raise ValidationError("target certificate is not over the target subcategory")
        cong = cert0.congruence

        def class_of(parent_mor):
            return cong.class_of[sub.to_sub_mor(parent_mor)]

        def members_of(c):
            return tuple(sub.morphisms[m] for m in cong.classes[c])

        def label(c):
            return f"[{sub.cat.mor_name(cong.classes[c][0])}]"

        hocat, gamma, memberships = _route_classes(
            cat, chain, class_of, members_of, label)
        return HoCr(category=hocat, gamma=gamma, chain=chain,
                    route="target-classes", classes=memberships)

    if ambient_cert is not None:
        if ambient_cert.congruence.base != cat:
            raise ValidationError("ambient certificate is not over the ambient category")
        cong = ambient_cert.congruence
        hocat, gamma, memberships = _route_classes(
            cat, chain, lambda m: cong.class_of[m],
            lambda c: cong.classes[c],
            lambda c: f"[{cat.mor_name(cong.classes[c][0])}]")
        return HoCr(category=hocat, gamma=gamma, chain=chain,
                    route="ambient-classes", classes=memberships)

    if cert0 is not None and not chain.functorial:
        raise ValidationError(
            "requires functorial chain or ambient certificate: the chain does not "
            "preserve composition, so the target certificate alone cannot be used")
    raise ValidationError(
        "requires functorial chain or ambient certificate: no usable certificate "
        "was given")


@dataclass(frozen=True)
class InversionReport:
    """Whether gamma_r sends every weak equivalence to an invertible arrow."""

    ok: bool
    witness: int | None


def check_inverts_w(hocr: HoCr, weqs) -> InversionReport:
    """Scan every member for a two-sided inverse of its image class."""
    cat = hocr.chain.cat
    members = resolve_weqs(cat, weqs)
    for w in sorted(members):
        if hocr.category.inverse(hocr.gamma.on_morphisms[w]) is None:
            return InversionReport(ok=False, witness=w)
    return InversionReport(ok=True, witness=None)


@dataclass(frozen=True, eq=False)
class ConjugationReport:
    """Outcome of comparing Ho(C) with Ho(C, r).

    With an ambient certificate the comparison functors phi and psi are
    built outright and checked mutually inverse; without one, each
    arrow f is tested homotopic to its theta-conjugate within the move
    budget, and exhausted pairs are reported unknown rather than failed.
    """

    status: str
    route: str
    witness: object | None
    unknown_pairs: tuple[int, ...]
    phi: CatFunctor | None
    psi: CatFunctor | None


def _theta_class(qcat, cong: Congruence, z: Zigzag):
    """Class of a theta zigzag in the homotopy quotient, or None."""
    cur = qcat.identity[z.source]
    for m, dr in z.steps:
        cls = cong.class_of[m]
        if dr != FWD:
            cls = qcat.inverse(cls)
            if cls is None:
                return None
        cur = qcat.table[cls][cur]
    return cur


def _reverse(cat, weqs, z: Zigzag) -> Zigzag:
    steps = [(m, BWD if dr == FWD else FWD) for m, dr in reversed(z.steps)]
    return make_zigzag(cat, weqs, z.target, steps)


def check_conjugation(cat: FinCat, weqs, chain: DeformationChain, hocr: HoCr,
                      cert: WhiteheadCertificate | None = None,
                      budget: int = 8) -> ConjugationReport:
    """Compare the plain homotopy quotient against the deformed one.

    Certificate route: phi sends a class [f] to [rf] and psi conjugates
    a target class back through the theta zigzags; both are validated as
    functors and checked mutually inverse arrow by arrow.  Lemma route:
    for every arrow f the single-step zigzag is searched equivalent to
    theta_Y . rf . theta_X^-1 within the budget.
    """
    if cert is not None:
        cong = cert.congruence
        qcat = quotient(cat, cong).quotient

        def failed(*witness, phi=None, psi=None):
            return ConjugationReport(status="failed", route="functor-pair", witness=witness,
                                     unknown_pairs=(), phi=phi, psi=psi)

        for members in cong.classes:
            if len({hocr.gamma.on_morphisms[m] for m in members}) > 1:
                return failed("gamma not constant on a homotopy class", *members[:2])

        phi_mors = tuple(hocr.gamma.on_morphisms[members[0]]
                         for members in cong.classes)
        try:
            phi = CatFunctor(qcat, hocr.category,
                             on_objects=tuple(range(len(cat.objects))),
                             on_morphisms=phi_mors)
        except ValidationError as exc:
            return failed("phi is not a functor", str(exc))

        theta_cls = {}
        theta_inv = {}
        for x in range(len(cat.objects)):
            t = _theta_class(qcat, cong, chain.thetas[x])
            inv = None if t is None else qcat.inverse(t)
            if inv is None:
                return failed("theta class is not invertible", x)
            theta_cls[x], theta_inv[x] = t, inv

        hq = hocr.category
        psi_mors = []
        for i in range(len(hq.morphisms)):
            x, y = hq.dom(i), hq.cod(i)
            rep = hocr.classes[i][0]
            mid = cong.class_of[rep]
            psi_mors.append(qcat.table[qcat.table[theta_cls[y]][mid]][theta_inv[x]])
        try:
            psi = CatFunctor(hq, qcat,
                             on_objects=tuple(range(len(cat.objects))),
                             on_morphisms=tuple(psi_mors))
        except ValidationError as exc:
            return failed("psi is not a functor", str(exc))

        for i in range(len(hq.morphisms)):
            if phi.on_morphisms[psi.on_morphisms[i]] != i:
                return failed("phi . psi misses the identity", i, phi=phi, psi=psi)
        for i in range(len(qcat.morphisms)):
            if psi.on_morphisms[phi.on_morphisms[i]] != i:
                return failed("psi . phi misses the identity", i, phi=phi, psi=psi)
        return ConjugationReport(status="verified", route="functor-pair",
                                 witness=None, unknown_pairs=(), phi=phi, psi=psi)

    members = resolve_weqs(cat, weqs)
    unknown = []
    for f in range(len(cat.morphisms)):
        x, y = cat.dom(f), cat.cod(f)
        z1 = make_zigzag(cat, members, x, [(f, FWD)])
        rev = _reverse(cat, members, chain.thetas[x])
        steps = list(rev.steps) + [(chain.on_morphisms[f], FWD)] + list(chain.thetas[y].steps)
        z2 = make_zigzag(cat, members, x, steps)
        if not bounded_equiv(cat, members, z1, z2, budget).equivalent:
            unknown.append(f)
    status = "verified" if not unknown else "unknown"
    return ConjugationReport(status=status, route="zigzag-lemma", witness=None,
                             unknown_pairs=tuple(unknown), phi=None, psi=None)
