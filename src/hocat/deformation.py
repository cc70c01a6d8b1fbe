"""Pointwise deformations onto a subcategory and the deformed quotient.

A deformation retracts a stage of the ambient category onto a target
subcategory: r sends objects and arrows into the target while a chosen
weak equivalence theta_X ties rX to X, pointing out of rX for the left
kind and into it for the right kind.  Naturality is checked one square
at a time; nothing assumes r preserves composition, that property is
measured and recorded instead.

Chains compose stage by stage, each link deforming the previous link's
target over the same family, so the composite theta is a zigzag rather
than a single arrow; the calls after it read the category and family
from the chain.  When the composite is functorial and the final target
carries a certified homotopy congruence, the deformed quotient Ho(C, r)
is built from those classes; a certificate on the ambient category is
the fallback route for non-functorial chains, and with neither there is
no Ho(C, r).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .congruence import Congruence, quotient
from .errors import ValidationError
from .fincat import DIRECTIONS, CatFunctor, FinCat, Mor, Subcategory, resolve_weqs
from .homotopy import Analysis, WhiteheadCertificate, WhiteheadResult
from .zigzag import BWD, FWD, Zigzag, bounded_equiv, localized_value, make_zigzag

__all__ = [
    "Deformation", "DeformationChain", "HoCr",
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


def _is_functor(cat: FinCat, ambient: Subcategory, on_obj: dict, on_mor: dict) -> bool:
    """Whether the maps, read on the stage ``ambient``, form a functor into ``cat``."""
    try:
        CatFunctor(ambient.cat, cat, [on_obj[x] for x in ambient.objects],
                   [on_mor[f] for f in ambient.morphisms])
    except ValidationError:
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
    exhaustively even though it follows from two out of three.  With no
    ``ambient`` the stage is ``cat`` itself, as its own full subcategory.
    """
    members = resolve_weqs(cat, weqs)
    if ambient is None:
        ambient = Subcategory(cat, tuple(range(len(cat.objects))),
                              tuple(range(len(cat.morphisms))), cat)
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
        functorial=_is_functor(cat, ambient, on_obj, on_mor))


@dataclass(frozen=True, eq=False)
class DeformationChain:
    """Composite of one or more deformations onto the last link's target.

    ``on_objects`` and ``on_morphisms`` are the composite maps over
    parent indices, total on the first link's stage.  ``thetas`` holds,
    per starting object X, the zigzag from the fully retracted rX back
    to X obtained by stringing the stage thetas together.
    ``functorial`` is whether the composite maps form a functor, and
    ``weqs`` the resolved family every link was validated over.
    """

    cat: FinCat
    weqs: frozenset[int]
    target: Subcategory
    on_objects: dict[int, int]
    on_morphisms: dict[int, int]
    thetas: dict[int, Zigzag]
    functorial: bool

    @cached_property
    def target_whitehead(self) -> WhiteheadResult:
        """The Whitehead result of the target under the chain's family,
        computed on first use; its certificate is the target route's."""
        sub = self.target
        return Analysis(sub.cat, [i for i, m in enumerate(sub.morphisms) if m in self.weqs]).whitehead


def compose_chain(links) -> DeformationChain:
    """Compose deformations of one category and family whose stages
    match up end to end."""
    links = tuple(links)
    if not links:
        raise ValidationError("a deformation chain needs at least one link")
    cat, weqs = links[0].cat, links[0].weqs
    for d in links[1:]:
        if d.cat != cat:
            raise ValidationError("chain links live in different categories")
        if d.weqs != weqs:
            raise ValidationError("chain links are validated over different families")
    for prev, nxt in zip(links, links[1:]):
        if (set(nxt.ambient.objects) != set(prev.target.objects)
                or set(nxt.ambient.morphisms) != set(prev.target.morphisms)):
            raise ValidationError(
                "chain links do not compose: a stage differs from the previous target")

    on_mor: dict[int, int] = {}
    for f in links[0].ambient.morphisms:
        cur = f
        for d in links:
            cur = d.on_morphisms[cur]
        on_mor[f] = cur

    # Each object's walk through the stages gives its composite theta,
    # and its last stage is the object's image.
    on_obj: dict[int, int] = {}
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
        on_obj[x] = stage[-1]

    return DeformationChain(
        cat=cat, weqs=weqs, target=links[-1].target,
        on_objects=on_obj, on_morphisms=on_mor, thetas=thetas,
        functorial=_is_functor(cat, links[0].ambient, on_obj, on_mor))


@dataclass(frozen=True, eq=False)
class HoCr:
    """The deformed quotient: one arrow per homotopy class of target arrows.

    Arrows X -> Y are the classes of target arrows rX -> rY; ``route``
    records whether the classes came from a certificate on the target
    ("target-classes") or on the ambient category ("ambient-classes").
    ``classes`` lists, per arrow, the target arrows in that class as
    ascending parent indices.  ``gamma`` is the induced functor f |-> [rf].
    """

    category: FinCat
    gamma: CatFunctor
    chain: DeformationChain
    route: str
    classes: tuple[tuple[int, ...], ...]


def _route_classes(cat, chain, cong: Congruence, arrows):
    """Build Ho(C, r) and gamma from one certified congruence.

    ``arrows`` maps each arrow of the congruence's base to its parent
    index.  The arrows X -> Y are the classes met by the target arrows
    rX -> rY, each named after its lowest arrow and holding its members
    in the target.  They compose as the congruence's quotient composes
    the classes: a certified congruence composes classes independently
    of the members chosen.
    """
    tgt = set(chain.target.morphisms)
    class_of = dict(zip(arrows, cong.class_of))
    classes = [tuple(map(arrows.__getitem__, cls)) for cls in cong.classes]
    n_obj = len(cat.objects)
    index: dict[tuple[int, int, int], int] = {}
    entries = []
    for x in range(n_obj):
        for y in range(n_obj):
            hom = cat.hom(chain.on_objects[x], chain.on_objects[y])
            for c in sorted({class_of[m] for m in hom if m in tgt}):
                index[(x, y, c)] = len(entries)
                entries.append((x, y, c))

    on, mn = cat.obj_name, cat.mor_name
    mors = tuple(Mor(f"{on(x)}>{on(y)}:[{mn(classes[c][0])}]", x, y) for x, y, c in entries)
    memberships = tuple(tuple(m for m in classes[c] if m in tgt) for _x, _y, c in entries)
    identity = tuple(index[(x, x, class_of[cat.identity[chain.on_objects[x]]])]
                     for x in range(n_obj))

    qtable = cong.quotient.table
    k = len(entries)
    table = [[-1] * k for _ in range(k)]
    for gi, (y2, z, c2) in enumerate(entries):
        for fi, (x, y1, c1) in enumerate(entries):
            if y1 == y2:
                table[gi][fi] = index[(x, z, qtable[c2][c1])]

    hocat = FinCat(cat.objects, mors, identity, table)
    gamma_mors = tuple(
        index[(cat.dom(f), cat.cod(f), class_of[chain.on_morphisms[f]])]
        for f in range(len(cat.morphisms)))
    gamma = CatFunctor(cat, hocat, on_objects=tuple(range(n_obj)),
                       on_morphisms=gamma_mors)
    return hocat, gamma, memberships


def build_ho_cr(chain: DeformationChain,
                cert0: WhiteheadCertificate | None = None,
                ambient_cert: WhiteheadCertificate | None = None) -> HoCr | None:
    """Materialize Ho(C, r) over ``chain.cat`` from certified homotopy
    classes, or None when no route is open.

    The preferred route ("target-classes") needs a functorial chain and
    ``cert0``, a certificate over the target subcategory such as
    ``chain.target_whitehead.certificate``, whose classes are read back
    onto the parent's arrows.  With only ``ambient_cert``
    ("ambient-classes") the ambient congruence is cut to the target
    instead, which also covers non-functorial chains.  The routes differ
    only in the certified congruence and the parent indices of its
    arrows they pass to :func:`_route_classes`, which composes classes
    through that congruence's quotient.
    """
    cat = chain.cat
    if len(chain.on_objects) != len(cat.objects):
        raise ValidationError("the chain must start from the whole category")

    if chain.functorial and cert0 is not None:
        sub = chain.target
        if cert0.congruence.base != sub.cat:
            raise ValidationError("target certificate is not over the target subcategory")
        route, cong, arrows = "target-classes", cert0.congruence, sub.morphisms
    elif ambient_cert is not None:
        if ambient_cert.congruence.base != cat:
            raise ValidationError("ambient certificate is not over the ambient category")
        route, cong, arrows = "ambient-classes", ambient_cert.congruence, range(len(cat.morphisms))
    else:
        return None

    hocat, gamma, memberships = _route_classes(cat, chain, cong, arrows)
    return HoCr(category=hocat, gamma=gamma, chain=chain, route=route,
                classes=memberships)


def check_inverts_w(hocr: HoCr) -> int | None:
    """The lowest member of the chain's family whose image under gamma_r
    has no two-sided inverse, or None when gamma_r inverts every one."""
    for w in sorted(hocr.chain.weqs):
        if hocr.category.inverse(hocr.gamma.on_morphisms[w]) is None:
            return w
    return None


@dataclass(frozen=True, eq=False)
class ConjugationReport:
    """Outcome of comparing Ho(C) with Ho(C, r).

    With an ambient certificate the comparison functors phi and psi are
    built outright: phi is certified by gamma, a functor checked constant
    on every homotopy class, and psi by the checks that it is phi's
    two-sided inverse.  On an inverse miss ``psi`` is None.  Without a
    certificate, each arrow f is tested homotopic to its theta-conjugate
    within the move budget, and exhausted pairs are reported unknown
    rather than failed.
    """

    status: str
    route: str
    witness: object | None
    unknown_pairs: tuple[int, ...]
    phi: CatFunctor | None
    psi: CatFunctor | None


def check_conjugation(hocr: HoCr, cert: WhiteheadCertificate | None = None,
                      budget: int = 8) -> ConjugationReport:
    """Compare the plain homotopy quotient of the chain's category
    against the deformed one, ``hocr``, through the chain it was built
    from.  ``cert`` is a certificate over that category.

    Certificate route: phi sends a class [f] to [rf] and psi conjugates
    a target class back through the theta zigzags.  gamma is a functor
    checked constant on every class, so phi([g]∘[f]) = gamma(rep g ∘
    rep f) = phi[g]∘phi[f] and phi keeps identities; psi is checked
    phi's two-sided inverse arrow by arrow.  So both are functors with
    no check of their own.  Lemma route: for every arrow f the
    single-step zigzag is searched equivalent to theta_Y . rf .
    theta_X^-1 within the budget, under the chain's family.
    """
    chain = hocr.chain
    cat = chain.cat
    if cert is not None:
        cong = cert.congruence
        qcat = quotient(cat, cong).quotient

        def failed(*witness, phi=None):
            return ConjugationReport(status="failed", route="functor-pair", witness=witness,
                                     unknown_pairs=(), phi=phi, psi=None)

        for members in cong.classes:
            if len({hocr.gamma.on_morphisms[m] for m in members}) > 1:
                return failed("gamma not constant on a homotopy class", *members[:2])

        phi = CatFunctor.certified(qcat, hocr.category, range(len(cat.objects)),
                                   [hocr.gamma.on_morphisms[members[0]]
                                    for members in cong.classes])

        theta_cls = {}
        theta_inv = {}
        for x in range(len(cat.objects)):
            t = localized_value(qcat, cong.class_of, chain.thetas[x])
            inv = None if t is None else cong.inverses[t]
            if inv is None:
                return failed("theta class is not invertible", x)
            theta_cls[x], theta_inv[x] = t, inv

        # psi composes theta_Y . [rf] . theta_X^-1, whose endpoints the
        # chain fixes; the checks below pass only for phi's inverse.
        hq = hocr.category
        psi_mors = []
        for i in range(len(hq.morphisms)):
            x, y = hq.dom(i), hq.cod(i)
            rep = hocr.classes[i][0]
            mid = cong.class_of[rep]
            psi_mors.append(qcat.table[qcat.table[theta_cls[y]][mid]][theta_inv[x]])

        for i in range(len(hq.morphisms)):
            if phi.on_morphisms[psi_mors[i]] != i:
                return failed("phi . psi misses the identity", i, phi=phi)
        for i in range(len(qcat.morphisms)):
            if psi_mors[phi.on_morphisms[i]] != i:
                return failed("psi . phi misses the identity", i, phi=phi)
        # the inverse of phi, an identity-on-objects functor, is a functor
        psi = CatFunctor.certified(hq, qcat, range(len(cat.objects)), psi_mors)
        return ConjugationReport(status="verified", route="functor-pair",
                                 witness=None, unknown_pairs=(), phi=phi, psi=psi)

    unknown = []
    for f in range(len(cat.morphisms)):
        x, y = cat.dom(f), cat.cod(f)
        # theta_X reversed, then rf, then theta_Y: a zigzag X -> Y whose
        # backward steps are theta components, so members
        steps = [(m, BWD if dr == FWD else FWD) for m, dr in reversed(chain.thetas[x].steps)]
        steps += [(chain.on_morphisms[f], FWD), *chain.thetas[y].steps]
        z1, z2 = Zigzag(x, y, ((f, FWD),)), Zigzag(x, y, tuple(steps))
        if not bounded_equiv(cat, chain.weqs, z1, z2, budget).equivalent:
            unknown.append(f)
    status = "verified" if not unknown else "unknown"
    return ConjugationReport(status=status, route="zigzag-lemma", witness=None,
                             unknown_pairs=tuple(unknown), phi=None, psi=None)
