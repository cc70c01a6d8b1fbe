"""The homotopy relation induced by a weak equivalence family.

Two parallel arrows are related on the left when some weak equivalence
equalizes them by post-composition, on the right when one does so by
pre-composition.  Closing the union of both relations into a congruence
gives the homotopy congruence: the finest identification the family
forces on parallel arrows.

``certify_whitehead`` decides whether quotienting by that congruence
already inverts the whole family, i.e. whether the quotient is the
category's localization at the family.  Success yields a certificate
with an explicit homotopy-inverse table, read off the congruence's
inverse classes (:attr:`Congruence.inverses`); failure is either witnessed
(some formally connected hom-set is empty, so no quotient can be the
localization) or reported as inconclusive.

Fork conditions: a homotopy between f and g is a commuting diagram built
on a fork (two legs equalized by a weak equivalence collapse, with the
common composite, the base, also a weak equivalence) plus a mediator
sending the legs to f and g.  The fork checks below quantify over
ordered related pairs, including degenerate ones, because that is what
the transitivity and saturation consequences need.  They require the
family axioms, by which the forks are read off the one-sided relation.

An :class:`Analysis` session computes each of these once for one
category and family, on first use, and shares it between the stages
that build on it.  Each function below other than ``r_left`` answers
with a stage of a fresh session, so its answer depends only on the
members; several stages of one input are read from one session.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .congruence import Congruence, Precongruence, intransitive_triple, least_congruence, sigma_of
from .errors import ValidationError
from .fincat import FinCat, opposite, resolve_weqs
from .weq import SplitGenResult, WeqFamily, check_split_generated, check_weq_axioms
from .zigzag import Zigzag, nonfullness_witness

__all__ = [
    "Analysis", "Fork", "HomotopyWitness", "WhiteheadCertificate", "WhiteheadResult",
    "SaturationReport",
    "r_left", "r_right", "r_left_comp", "r_right_comp",
    "homotopy_congruence", "certify_whitehead",
    "check_fork_condition", "check_common_fork", "check_rc_transitive",
    "check_saturation",
]


def r_left(cat: FinCat, weqs) -> Precongruence:
    """Distinct parallel pairs equalized by post-composing a member.

    f, g: A -> B land in the relation when w∘f = w∘g for some member
    w: B -> C, so on each hom-set the relation is the union, over the
    members out of B, of the kernels of w∘−.  A member's image of the
    hom-set keys its kernel canonically (each arrow mapped to the last
    arrow with its image), so members with equal kernels count once.
    An injective member adds nothing, and one that collapses the
    hom-set relates every pair in it: one into C with hom(A, C) a
    single arrow does so unread.

    A member w: B -> C is not read either when the lowest member
    u: C -> T has u∘w a member, for a target T that B fixes: u∘w∘− has
    the coarser kernel and is read, being a member B -> T.  T is the
    member codomain out of B with fewest other member codomains that no
    member leads into T, then fewest members B -> T, then lowest.  The
    relation is returned as blocks, one per class of two or more arrows
    of each distinct kernel read.
    """
    # An identity is injective on every hom-set, so it relates nothing.
    members = frozenset(cat.mor(w) for w in weqs) - cat.identity_set
    table, morphisms = cat.table, cat.morphisms
    between: dict[tuple[int, int], list[int]] = {}  # members by (dom, cod)
    for w in members:
        m = morphisms[w]
        between.setdefault((m.dom, m.cod), []).append(w)
    cods: list[list[int]] = [[] for _ in cat.objects]
    for b, c in between:
        cods[b].append(c)

    def read(b: int) -> list[int]:
        """The members out of b whose kernels are read."""
        cs = cods[b]
        if len(cs) < 2:
            return between[b, cs[0]]
        t = min(cs, key=lambda t: (sum((c, t) not in between for c in cs if c != t),
                                   len(between[b, t]), t))
        return [w for c in cs for w in between[b, c] if c == t or (c, t) not in between
                or table[min(between[c, t])][w] not in members]

    reads: dict[int, list[int]] = {}
    blocks = []
    for a, b in cat.hom_pairs():
        if not cods[b]:
            continue
        arrows = cat.hom(a, b)
        if len(arrows) < 2:
            continue
        if any(len(cat.hom(a, c)) == 1 for c in cods[b]):
            blocks.append(arrows)  # w∘− is constant: one class
            continue
        if b not in reads:
            reads[b] = read(b)
        image = itemgetter(*arrows)
        kernels = set()
        for w in reads[b]:
            img = image(table[w])
            last = dict(zip(img, arrows))
            if len(last) == len(arrows):
                continue
            key = tuple(map(last.__getitem__, img))
            if len(last) == 1:  # one class: every pair is related
                kernels = {key}
                break
            kernels.add(key)
        for key in kernels:
            classes: dict[int, list[int]] = {}
            for f, k in zip(arrows, key):
                classes.setdefault(k, []).append(f)
            blocks.extend(tuple(cls) for cls in classes.values() if len(cls) > 1)
    return Precongruence.canonical(cat, blocks)


def r_right(cat: FinCat, weqs) -> Precongruence:
    """Dual of :func:`r_left`: pairs equalized by pre-composition.

    Computed as the left relation of the opposite category and pulled
    back; arrow indices agree, so the pullback is the identity.
    """
    return Analysis(cat, weqs).right


def _left_closure(work: FinCat, blocks) -> Precongruence:
    """Composition closure of a left relation on ``work``, as blocks.

    The left relation is already stable under pre-composition (the same
    equalizing member works), so post-composing with every mediator
    h: B -> B' alone reaches the full two-sided closure.  The image of
    a block under h is a block again: h∘f and h∘g are related for any
    two of its arrows.  Each mediator is a composite of
    :attr:`FinCat.generators`, so a worklist that maps each new block
    by the generators out of its codomain reaches every image.  An
    image of one arrow relates nothing and is dropped.  An empty
    relation is closed as it is.
    """
    table, morphisms = work.table, work.morphisms
    out = set(blocks)
    todo = list(out)
    # the rows of the generators out of each object
    after = [[table[k] for k in work.generators if morphisms[k].dom == x]
             for x in range(len(work.objects))] if todo else ()
    while todo:
        block = todo.pop()
        image = itemgetter(*block)
        for row in after[morphisms[block[0]].cod]:
            img = set(image(row))
            if len(img) > 1:
                img = tuple(sorted(img))
                if img not in out:
                    out.add(img)
                    todo.append(img)
    return Precongruence.canonical(work, out)


def r_left_comp(cat: FinCat, weqs) -> Precongruence:
    """Composition closure of :func:`r_left`."""
    return Analysis(cat, weqs).closed("left")[1]


def r_right_comp(cat: FinCat, weqs) -> Precongruence:
    """Dual closure: pre-compose the right relation with every mediator."""
    return Precongruence.canonical(cat, Analysis(cat, weqs).closed("right")[1].blocks)


def homotopy_congruence(cat: FinCat, weqs) -> Congruence:
    """Least congruence containing both one-sided relations."""
    return Analysis(cat, weqs).congruence


@dataclass(frozen=True)
class Fork:
    """Two legs out of ``vertex`` equalized by a weak equivalence.

    side "left": legs vertex -> apex, collapse apex -> other,
    base = collapse∘leg.  side "right" is the mirror image: legs
    apex -> vertex, collapse other -> apex, base = leg∘collapse.  In a
    fork of weak equivalences the base is a member too.
    """

    side: str
    vertex: int
    apex: int
    legs: tuple[int, int]
    collapse: int
    base: int


@dataclass(frozen=True)
class HomotopyWitness:
    """A fork plus a mediator realizing a homotopy between f and g.

    Left side: mediator∘leg0 = f and mediator∘leg1 = g.  Right side:
    leg0∘mediator = f and leg1∘mediator = g.
    """

    side: str
    f: int
    g: int
    fork: Fork
    mediator: int


class _LegFibres:
    """The column fibres of the member legs out of ``va``, over the
    mediators towards ``vb``: everything a weq fork at ``va`` can
    mediate in hom(va, vb), with no fork enumerated.

    Per apex x, leg k's column lists h∘leg over the mediators
    h: x -> ``vb``, and its fibre over an arrow f is the bitmask of the
    mediators h with h∘leg = f.  The apex's hit on f is the bitmask of
    the legs whose column holds f.  ``partners[k]`` is the bitmask of
    leg k and the legs that a block of the one-sided relation
    ``related`` relates it to: by two out of three, legs (l0, l1) carry
    a weq fork iff l0 is a member and l0 = l1 or they are related, and
    a block is all members or none.  Fibres and hits are built with the
    columns, once per hom pair.  Both fork stages ask one query,
    :meth:`_first`.
    """

    def __init__(self, work: FinCat, transposed, members: frozenset[int],
                 related: Precongruence, va: int, vb: int):
        # per apex: (legs, mediators, columns, hits, fibres, partners)
        self.apexes = []
        for x in range(len(work.objects)):
            legs = [leg for leg in work.hom(va, x) if leg in members]
            mediators = work.hom(x, vb)
            if not legs or not mediators:
                continue
            columns = [tuple(map(transposed[leg].__getitem__, mediators)) for leg in legs]
            hits: dict[int, int] = {}
            fibres = []
            for k, column in enumerate(columns):
                fibre: dict[int, int] = {}
                for i, f in enumerate(column):
                    fibre[f] = fibre.get(f, 0) | 1 << i
                for f in fibre:
                    hits[f] = hits.get(f, 0) | 1 << k
                fibres.append(fibre)
            where = {leg: k for k, leg in enumerate(legs)}
            partners = [1 << k for k in range(len(legs))]
            for block in related.blocks:
                if block[0] in where:
                    bits = sum(1 << where[leg] for leg in block)
                    for leg in block:
                        partners[where[leg]] |= bits
            self.apexes.append((legs, mediators, columns, hits, fibres, partners))

    def _first(self, p, q) -> tuple[int, int, int] | None:
        """The apex and leg positions (a, k0, k1) of the earliest weq
        fork, in (apex, l0, l1) order, that mediates both ordered pairs
        p and q, or None when no fork does: legs with mediators h, h'
        such that h∘l0, h∘l1 is p and h'∘l0, h'∘l1 is q."""
        (f, g), (f2, g2) = p, q
        for a, (_legs, _mediators, _columns, hits, fibres, partners) in enumerate(self.apexes):
            firsts = hits.get(f, 0) & hits.get(f2, 0)
            seconds = firsts and hits.get(g, 0) & hits.get(g2, 0)
            while firsts and seconds:
                k0 = (firsts & -firsts).bit_length() - 1
                firsts ^= 1 << k0
                at_p, at_q = fibres[k0][f], fibres[k0][f2]
                both = seconds & partners[k0]
                while both:
                    k1 = (both & -both).bit_length() - 1
                    both ^= 1 << k1
                    if at_p & fibres[k1][g] and at_q & fibres[k1][g2]:
                        return a, k0, k1
        return None

    def shared(self, p, q):
        """The columns of the legs (l0, l1) of the fork :meth:`_first`
        names, or None when no fork mediates both p and q."""
        if first := self._first(p, q):
            a, k0, k1 = first
            return self.apexes[a][2][k0], self.apexes[a][2][k1]
        return None

    def witness(self, f: int, g: int) -> tuple[int, int, int] | None:
        """The legs (l0, l1) and lowest mediator h of the earliest weq
        fork, in (apex, l0, l1) order, that mediates (f, g) or (g, f),
        or None when none does.  The legs face (f, g): h∘l0 = f and
        h∘l1 = g, so a fork that mediates only (g, f) comes turned, and
        one that mediates both comes as it is."""
        facing, turned = self._first((f, g), (f, g)), self._first((g, f), (g, f))
        if turned and (not facing or turned < facing):
            a, k1, k0 = turned
        elif facing:
            a, k0, k1 = facing
        else:
            return None
        legs, mediators, _columns, _hits, fibres, _partners = self.apexes[a]
        hs = fibres[k0][f] & fibres[k1][g]
        return legs[k0], legs[k1], mediators[(hs & -hs).bit_length() - 1]


class Verdict(NamedTuple):
    """A per-side check's answer, with its first counterexample when it fails."""

    ok: bool
    counterexample: tuple | None


def check_fork_condition(cat: FinCat, weqs, side: str = "left") -> Verdict:
    """Does every related pair admit a homotopy over a weq fork?

    Quantifies over the distinct pairs of the closed one-sided relation;
    a witness for (f, g) converts into one for (g, f) by swapping legs,
    and degenerate pairs always have the identity fork, so this is the
    full ordered statement.

    Decided without reading a fork: a weq fork with legs (l0, l1)
    exists iff some member σ has σ∘l0 = σ∘l1 a member, and it mediates
    exactly the pairs (h∘l0, h∘l1).  By two out of three, a one-sided
    pair (f, g) has such a σ iff f is a member, so forks mediate the
    closure of these good pairs; the counterexample is the least related
    pair outside it.  A one-sided block is a class of one member's
    kernel, so it is good or not as a whole.  ``Analysis.fork_witnesses``
    names a fork and mediator per pair.  Raises ``ValidationError``
    unless the family axioms hold.
    """
    return Analysis(cat, weqs).fork_condition(side)


def _fork_condition(work: FinCat, transposed, members: frozenset[int], related,
                    rel: Precongruence, side: str) -> Verdict:
    # A pair (f, g) of ``related``, the relation ``rel`` closes, is good when
    # a member σ has σ∘f = σ∘g a member: by two out of three, when f is one.
    # The arrows of a block share σ∘f, so they are members or none is.
    good = [block for block in related.blocks if block[0] in members]
    if len(good) == len(related.blocks):  # both close to ``rel``; always so with W every arrow
        return Verdict(True, None)
    missing = rel.pairs - _left_closure(work, good).pairs
    return Verdict(not missing, min(missing) if missing else None)


def _fork_witnesses(work: FinCat, transposed, members: frozenset[int], related,
                    rel: Precongruence, side: str, cut: tuple[int, int] | None) -> dict:
    """A homotopy witness for each related pair before ``cut`` (every
    pair when None), in pair order: the earliest fork mediating (f, g)
    or (g, f), legs in (f, g) order and the unswapped pair on a tie,
    with its lowest-index mediator, read off each hom pair's column
    fibres by :meth:`_LegFibres.witness`.  The fork's collapse is the
    lowest member out of the apex equalizing its legs, found once per
    unordered leg pair."""
    table = work.table
    pairs = sorted(p for p in rel.pairs if cut is None or p < cut)
    homs: dict = {}
    for f, g in pairs:
        homs.setdefault((work.dom(f), work.cod(f)), []).append((f, g))
    found = {}
    for (va, vb), hom_pairs in homs.items():
        fibres = _LegFibres(work, transposed, members, related, va, vb)
        collapses: dict[tuple[int, int], int] = {}
        for f, g in hom_pairs:
            l0, l1, mediator = fibres.witness(f, g)
            apex = work.cod(l0)
            legs = (l0, l1) if l0 < l1 else (l1, l0)
            if legs not in collapses:
                collapses[legs] = next(sigma for sigma in work.outgoing[apex] if sigma in members
                                       and table[sigma][l0] == table[sigma][l1])
            sigma = collapses[legs]
            fork = Fork(side, va, apex, (l0, l1), sigma, table[sigma][l0])
            found[f, g] = HomotopyWitness(side, f, g, fork, mediator)
    return {p: found[p] for p in pairs}


def check_common_fork(cat: FinCat, weqs, side: str = "left") -> Verdict:
    """Must any two related pairs share one mediating weq fork?

    Ordered pairs, diagonal included: that is the strength the
    transitivity argument consumes, which chains one pair against a
    degenerate one on the dual side.

    Any two pairs of a hom pair are decided exactly from the column
    fibres of the member legs, with no fork enumerated: some apex has
    weq fork legs (l0, l1) and mediators h, h' with (h∘l0, h∘l1) the
    one pair and (h'∘l0, h'∘l1) the other, or none does.  Each fork a
    "yes" names gets one bit, set in the mask of every pair it
    mediates, so two pairs whose masks meet need no test.  A hom pair
    whose related pairs are all diagonal needs none either: the
    identity fork at its vertex mediates every (h, h).  The forks are
    read off the one-sided relation, so the family axioms must hold.
    """
    return Analysis(cat, weqs).common_fork(side)


def _common_fork(work: FinCat, transposed, members: frozenset[int], related,
                 rel: Precongruence, side: str) -> Verdict:
    held: dict[int, list] = {}  # each arrow's closed blocks
    for block in rel.blocks:
        for f in block:
            held.setdefault(f, []).append(block)
    for va, vb in work.hom_pairs():
        arrows = work.hom(va, vb)
        if not any(f in held for f in arrows):
            continue  # the identity fork at va mediates every (h, h)
        # The ordered related pairs of hom(va, vb), diagonal included.
        pairs = [(f, g) for f in arrows
                 for g in (sorted(set().union(*held[f])) if f in held else (f,))]
        forks = _LegFibres(work, transposed, members, related, va, vb)
        masks: dict[tuple[int, int], int] = {}
        bit = 1
        for i, p in enumerate(pairs):
            mask = masks.get(p, 0)
            for j in range(i, len(pairs)):
                q = pairs[j]
                if not mask & masks.get(q, 0):
                    legs = forks.shared(p, q)
                    if legs is None:
                        return Verdict(False, (p, q))
                    for r in zip(*legs):
                        masks[r] = masks.get(r, 0) | bit
                    mask |= bit
                    bit <<= 1
    return Verdict(True, None)


def check_rc_transitive(cat: FinCat, weqs, side: str = "left") -> Verdict:
    """Exhaustive transitivity check of the closed one-sided relation.

    The relation is reflexive and symmetric by construction, so only
    chains of distinct arrows can break transitivity.  It is decided on
    the relation's blocks, and the counterexample is the first
    intransitive triple.
    """
    return Analysis(cat, weqs).rc_transitive(side)


@dataclass(frozen=True)
class WhiteheadCertificate:
    """Proof that the homotopy quotient inverts the whole family.

    ``inverse_table`` maps each member to its lowest-index homotopy
    inverse; ``basis`` keeps the two seed relations that generated the
    congruence, as blocks: their pairs are built only when read.
    """

    congruence: Congruence
    inverse_table: dict[int, int]
    basis: tuple[Precongruence, Precongruence]


@dataclass(frozen=True)
class WhiteheadResult:
    """certified / failed / inconclusive.  A failed result's ``witness``
    is a zigzag whose endpoints have an empty hom-set; only the last two
    carry the split generation that ruled out certification."""

    status: str
    congruence: Congruence
    certificate: WhiteheadCertificate | None
    witness: Zigzag | None
    split_generation: SplitGenResult | None

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def certify_whitehead(cat: FinCat, weqs, *, family: WeqFamily | None = None,
                      splitgen: SplitGenResult | None = None) -> WhiteheadResult:
    """Decide whether the homotopy quotient is the localization.

    Certified: every member is invertible up to the homotopy congruence,
    so the quotient and the localization coincide.  Otherwise, a
    split-generated family would contradict the certified case, so that
    combination raises; a zigzag between objects with an empty hom-set
    (:func:`nonfullness_witness`) downgrades the verdict to failed and is
    its ``witness``, and absent such a zigzag it stays inconclusive.
    A given ``family`` must be of ``cat`` and have the members ``weqs``
    resolves to, or ``ValidationError`` is raised; it stands in for the
    session's axiom check.  A given ``splitgen`` stands in for its split
    generation and must be of those members too: a generated one
    decomposes exactly them, a failed one names one of them missing.
    """
    session = Analysis(cat, weqs)
    if family is None and splitgen is None:
        return session.whitehead
    if family is not None and family.base is not cat and family.base != cat:
        raise ValidationError("the given family is of another category")
    if family is not None and family.members != session.members:
        raise ValidationError("the given family has other members than the weak equivalences")
    if splitgen is not None and (
            splitgen.certificate.decompositions.keys() != session.members if splitgen.generated
            else splitgen.missing not in session.members):
        raise ValidationError(
            "the given split generation has other members than the weak equivalences")
    return session._certify(family or session.family, splitgen)


@dataclass(frozen=True)
class SaturationReport:
    """Direct saturation check plus the sufficient-condition route.

    saturated: no arrow outside the family becomes invertible in the
    homotopy quotient.  predicted: weak invertibility, split generation,
    and both fork conditions all hold, which forces saturation; the
    direct check must then agree.
    """

    saturated: bool
    violations: tuple[int, ...]
    predicted: bool
    weak_invertibility: bool
    split_generated: bool
    fork_left: bool
    fork_right: bool


def check_saturation(cat: FinCat, weqs, cert: WhiteheadCertificate) -> SaturationReport:
    """A fresh session's saturation report.  ``cert`` must certify a
    congruence equal to the homotopy congruence, or ``ValidationError``
    is raised."""
    session = Analysis(cat, weqs)
    if cert.congruence != session.congruence:
        raise ValidationError("the certificate is not on the homotopy congruence of the family")
    return session.saturation


class Analysis:
    """One analysis of ``cat`` with the weak equivalences ``weqs``.

    Each stage is computed on first use and then kept, so the stages
    that build on one another share one family check, one opposite
    category, one homotopy congruence (which keeps its quotient), one
    set of invertible arrows, and per side one closed relation, fork
    condition, set of fork witnesses, common-fork and transitivity
    verdict.  The one-sided and closed relations stay blocks, which the
    fork condition, the common fork and transitivity read as they are;
    the fork witnesses list the closed relation's pairs.  Leg
    composites come from the transposed table the session holds
    anyway: the opposite's on the left, the category's on the right.
    The common fork and the fork witnesses read them as column fibres,
    one set per hom pair, which goes when its hom pair is done; no
    stage enumerates forks.  The fork stages require the family
    axioms.  ``weqs`` may name arrows or index them; identities are
    implicit, as in documents.
    """

    def __init__(self, cat: FinCat, weqs):
        self.cat = cat
        self.weqs = tuple(weqs)
        self.members = resolve_weqs(cat, self.weqs)
        # per-side stages by (function, side)
        self._sides: dict = {}

    @cached_property
    def family(self) -> WeqFamily:
        return check_weq_axioms(self.cat, self.weqs)

    def axioms_hold(self, message: str) -> WeqFamily:
        """The family, raising ``message`` unless its axioms hold."""
        if not self.family.report.axioms_ok:
            raise ValidationError(message)
        return self.family

    @cached_property
    def splitgen(self) -> SplitGenResult:
        return check_split_generated(self.family)

    @cached_property
    def op(self) -> FinCat:
        return opposite(self.cat)

    @cached_property
    def left(self) -> Precongruence:
        return r_left(self.cat, self.members)

    @cached_property
    def right(self) -> Precongruence:
        return Precongruence.canonical(self.cat, r_left(self.op, self.members).blocks)

    @cached_property
    def congruence(self) -> Congruence:
        return least_congruence(self.left.union(self.right))

    @cached_property
    def sigma(self) -> frozenset[int]:
        """The arrows invertible in the homotopy quotient."""
        return sigma_of(self.cat, self.congruence)

    def _work(self, side: str) -> tuple[FinCat, list]:
        """The category a side's forks live in (``cat`` on the left, its
        opposite on the right) and its transposed table (the other's)."""
        if side == "left":
            return self.cat, self.op.table
        if side == "right":
            return self.op, self.cat.table
        raise ValidationError(f"side must be left or right, not {side!r}")

    def closed(self, side: str) -> tuple[FinCat, Precongruence]:
        """The category a side's forks live in and the closed one-sided
        relation there, as blocks."""
        work = self._work(side)[0]
        key = (_left_closure, side)
        if key not in self._sides:  # the one-sided relation is self.left or self.right
            self._sides[key] = _left_closure(work, getattr(self, side).blocks)
        return work, self._sides[key]

    def fork_condition(self, side: str = "left") -> Verdict:
        return self._per_side(_fork_condition, side)

    def fork_witnesses(self, side: str = "left") -> dict:
        """A :class:`HomotopyWitness` for each related pair (f, g) before
        the fork condition's counterexample (every pair when it holds),
        keyed and ordered by pair."""
        return self._per_side(_fork_witnesses, side, self.fork_condition(side).counterexample)

    def common_fork(self, side: str = "left") -> Verdict:
        return self._per_side(_common_fork, side)

    def rc_transitive(self, side: str = "left") -> Verdict:
        """Is the closed one-sided relation transitive?  With the first
        intransitive triple when it is not."""
        key = (intransitive_triple, side)
        if key not in self._sides:
            triple = intransitive_triple(self.closed(side)[1].blocks)
            self._sides[key] = Verdict(triple is None, triple)
        return self._sides[key]

    def _per_side(self, check, side: str, *args):
        if (check, side) not in self._sides:
            self.axioms_hold("family axioms must hold before the fork checks")
            work, rel = self.closed(side)
            self._sides[check, side] = check(work, self._work(side)[1], self.members,
                                             getattr(self, side), rel, side, *args)
        return self._sides[check, side]

    @cached_property
    def whitehead(self) -> WhiteheadResult:
        return self._certify(self.family, None)

    def _certify(self, family: WeqFamily, splitgen: SplitGenResult | None) -> WhiteheadResult:
        """Whitehead on this session's congruence, gated by the axiom check
        of ``family`` (one of this session's category and members); a
        failed or inconclusive result carries ``splitgen``, else the
        session's."""
        if not family.report.axioms_ok:
            raise ValidationError("family axioms must hold before certification")
        cat, members, cong = self.cat, self.members, self.congruence
        if members <= self.sigma:
            # An inverse class is unique, so its lowest member is the
            # lowest-index homotopy inverse.
            classes, inverses, class_of = cong.classes, cong.inverses, cong.class_of
            inverse_table = {w: classes[inverses[class_of[w]]][0] for w in sorted(members)}
            cert = WhiteheadCertificate(cong, inverse_table, (self.left, self.right))
            return WhiteheadResult("certified", cong, cert, None, None)

        if splitgen is None:
            splitgen = self.splitgen
        if splitgen.generated:
            raise RuntimeError(
                "internal inconsistency: split-generated family failed certification")

        witness = nonfullness_witness(cat, members)
        status = "failed" if witness is not None else "inconclusive"
        return WhiteheadResult(status, cong, None, witness, splitgen)

    @cached_property
    def saturation(self) -> SaturationReport:
        family = self.axioms_hold("family axioms must hold")
        violations = sorted(self.sigma - self.members)
        weak_inv = family.report.weak_invertibility_ok
        split_ok = self.splitgen.generated
        fork_l = self.fork_condition("left").ok
        fork_r = self.fork_condition("right").ok
        predicted = weak_inv and split_ok and fork_l and fork_r
        if predicted and violations:
            raise RuntimeError(
                "internal inconsistency: saturation predicted but violated by "
                + self.cat.mor_name(violations[0]))
        return SaturationReport(
            saturated=not violations,
            violations=tuple(violations),
            predicted=predicted,
            weak_invertibility=weak_inv,
            split_generated=split_ok,
            fork_left=fork_l,
            fork_right=fork_r,
        )

