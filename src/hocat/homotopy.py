"""The homotopy relation induced by a weak equivalence family.

Two parallel arrows are related on the left when some weak equivalence
equalizes them by post-composition, on the right when one does so by
pre-composition.  Closing the union of both relations into a congruence
gives the homotopy congruence: the finest identification the family
forces on parallel arrows.

``certify_whitehead`` decides whether quotienting by that congruence
already inverts the whole family, i.e. whether the quotient is the
category's localization at the family.  Success yields a certificate
with an explicit homotopy-inverse table; failure is either witnessed
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
that build on it.  A category holds the last session the functions
below served, keyed by its members, for as long as the category lives,
and all but ``r_left`` answer with one of its stages: so the answers
depend only on the members, and ``homotopy_congruence``,
``certify_whitehead`` and ``check_saturation``, in any order, build the
opposite category and the congruence once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter

from .congruence import Congruence, Precongruence, intransitive_triple, least_congruence, sigma_of
from .errors import ValidationError
from .fincat import FinCat, opposite, resolve_weqs
from .weq import SplitGenResult, WeqFamily, check_split_generated, check_weq_axioms
from .zigzag import nonfullness_witness

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
    hom-set relates every pair in it.  Each class of each kernel gives
    its pairs f < g; degenerate pairs are not stored.
    """
    # An identity is injective on every hom-set, so it relates nothing.
    members = frozenset(cat.mor(w) for w in weqs) - cat.identity_set
    rows = [[cat.table[w] for w in out if w in members] for out in cat.outgoing]
    pairs = set()
    for a, b in cat.hom_pairs():
        if not rows[b]:
            continue
        arrows = cat.hom(a, b)
        if len(arrows) < 2:
            continue
        image = itemgetter(*arrows)
        kernels = set()
        for row in rows[b]:
            img = image(row)
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
            for cls in classes.values():
                pairs.update(combinations(cls, 2))
    return Precongruence.canonical(cat, pairs)


def r_right(cat: FinCat, weqs) -> Precongruence:
    """Dual of :func:`r_left`: pairs equalized by pre-composition.

    Computed as the left relation of the opposite category and pulled
    back; arrow indices agree, so the pullback is the identity.
    """
    return _held(cat, weqs).right


def _left_closure(work: FinCat, pairs) -> Precongruence:
    """Composition closure of a left relation on ``work``.

    The left relation is already stable under pre-composition (the same
    equalizing member works), so post-composing with every mediator
    h: B -> B' alone reaches the full two-sided closure.  Each mediator
    is a composite of :attr:`FinCat.generators`, so a worklist that
    post-composes each new pair with the generators out of its codomain
    reaches the same pairs.  A pair that becomes degenerate stays so
    and is dropped.  An empty relation is closed as it is.
    """
    table, morphisms = work.table, work.morphisms
    out = set(pairs)
    todo = list(out)
    # the rows of the generators out of each object
    after = [[table[k] for k in work.generators if morphisms[k].dom == x]
             for x in range(len(work.objects))] if todo else ()
    while todo:
        f, g = todo.pop()
        for row in after[morphisms[f].cod]:
            hf, hg = row[f], row[g]
            if hf != hg:
                p = (hf, hg) if hf < hg else (hg, hf)
                if p not in out:
                    out.add(p)
                    todo.append(p)
    return Precongruence.canonical(work, out)


def r_left_comp(cat: FinCat, weqs) -> Precongruence:
    """Composition closure of :func:`r_left`."""
    return _held(cat, weqs).closed("left")[1]


def r_right_comp(cat: FinCat, weqs) -> Precongruence:
    """Dual closure: pre-compose the right relation with every mediator."""
    return Precongruence.canonical(cat, _held(cat, weqs).closed("right")[1].pairs)


def homotopy_congruence(cat: FinCat, weqs) -> Congruence:
    """Least congruence containing both one-sided relations."""
    return _held(cat, weqs).congruence


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


def _left_weq_forks(cat: FinCat, transposed, members: frozenset[int], related, va: int, vb: int):
    """Yield the legs (l0, l1) of every left fork of weak equivalences at
    vertex ``va``, in (apex, l0, l1) order, with the set of ordered pairs
    of hom(va, vb) arrows it mediates.  ``transposed[f][h]`` is h∘f.

    By two out of three, a member σ with σ∘l0 = σ∘l1 a member exists iff
    l0 is a member and l0 = l1 or the one-sided relation ``related``
    holds (min, max) of the legs: a member equalizing them is such a σ."""
    for apex in range(len(cat.objects)):
        legs_pool = [leg for leg in cat.hom(va, apex) if leg in members]
        if not legs_pool:
            continue
        mediators = cat.hom(apex, vb)
        image = {}
        for l0 in legs_pool:
            for l1 in legs_pool:
                if l0 != l1 and (min(l0, l1), max(l0, l1)) not in related:
                    continue
                for leg in (l0, l1):
                    if leg not in image:
                        image[leg] = tuple(map(transposed[leg].__getitem__, mediators))
                yield (l0, l1), frozenset(zip(image[l0], image[l1]))


class _ForkIndex:
    """The left weq forks at ``va`` towards ``vb`` for the common-fork
    check, read from the enumeration only until the pairs asked about
    share a fork (to the end only when they share none).

    The distinct sets of hom(va, vb) pairs that forks mediate are
    numbered in the order they first appear; ``masks`` maps each ordered
    pair (f, g) to the bitmask of the sets read so far that contain it,
    so reading on only adds bits.  A set is recognized again by its
    hash, its size and the masks of its pairs (a set of that size whose
    every pair has bit i is set i), so the sets themselves are not kept.
    """

    def __init__(self, cat: FinCat, transposed, members: frozenset[int], related,
                 va: int, vb: int):
        self._unread = _left_weq_forks(cat, transposed, members, related, va, vb)
        self._sets = 0
        self.masks: dict[tuple[int, int], int] = {}
        # the numbers of the sets with each (hash, size)
        self._by_key: dict[tuple[int, int], list[int]] = {}

    def _read(self) -> bool:
        """Read the next fork in; False once every fork is read."""
        item = next(self._unread, None)
        if item is None:
            return False
        _legs, mediated = item
        masks = self.masks
        same = self._by_key.setdefault((hash(mediated), len(mediated)), [])
        for i in same:
            bit = 1 << i
            if all(masks.get(p, 0) & bit for p in mediated):
                return True
        i = self._sets
        self._sets += 1
        same.append(i)
        bit = 1 << i
        for p in mediated:
            masks[p] = masks.get(p, 0) | bit
        return True

    def share(self, p, q) -> tuple[int, int]:
        """The masks of pairs p and q, read until they meet."""
        masks = self.masks
        while not masks.get(p, 0) & masks.get(q, 0) and self._read():
            pass
        return masks.get(p, 0), masks.get(q, 0)


@dataclass(frozen=True)
class ForkConditionResult:
    side: str
    ok: bool
    counterexample: tuple[int, int] | None


@dataclass(frozen=True)
class CommonForkResult:
    side: str
    ok: bool
    counterexample: tuple[tuple[int, int], tuple[int, int]] | None


def check_fork_condition(cat: FinCat, weqs, side: str = "left") -> ForkConditionResult:
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
    pair outside it.  ``Analysis.fork_witnesses`` names a fork and
    mediator per pair.  Raises ``ValidationError`` unless the family
    axioms hold.
    """
    return _held(cat, weqs).fork_condition(side)


def _fork_condition(work: FinCat, transposed, members: frozenset[int], related,
                    rel: Precongruence, side: str) -> ForkConditionResult:
    # A pair (f, g) of ``related``, the relation ``rel`` closes, is good when
    # a member σ has σ∘f = σ∘g a member: by two out of three, when f is one.
    good = {(f, g) for f, g in related if f in members}
    if len(good) == len(related):  # both close to ``rel``; always so with W every arrow
        return ForkConditionResult(side, True, None)
    missing = rel.pairs - _left_closure(work, good).pairs
    return ForkConditionResult(side, not missing, min(missing) if missing else None)


def _fork_witnesses(work: FinCat, transposed, members: frozenset[int], related,
                    rel: Precongruence, side: str, cut: tuple[int, int] | None) -> dict:
    """A homotopy witness for each related pair before ``cut`` (every
    pair when None), in pair order: the earliest fork mediating (f, g)
    or (g, f), legs in (f, g) order and the unswapped pair on a tie,
    with its lowest-index mediator.  The fork's collapse is the lowest
    member out of the apex equalizing its legs.  Each hom pair's forks
    are read once, in order, until all its pairs are met."""
    table = work.table
    pairs = sorted(p for p in rel.pairs if cut is None or p < cut)
    unmet: dict = {}
    for f, g in pairs:
        unmet.setdefault((work.dom(f), work.cod(f)), set()).add((f, g))
    found = {}
    for (va, vb), left in unmet.items():
        forks = _left_weq_forks(work, transposed, members, related, va, vb)
        while left:
            legs, mediated = next(forks)
            met = [p for p in left if p in mediated or p[::-1] in mediated]
            if not met:
                continue
            apex = work.cod(legs[0])
            collapse = next(sigma for sigma in work.outgoing[apex]
                            if sigma in members and table[sigma][legs[0]] == table[sigma][legs[1]])
            for f, g in met:
                l0, l1 = legs if (f, g) in mediated else legs[::-1]
                mediator = next(h for h in work.hom(apex, vb)
                                if table[h][l0] == f and table[h][l1] == g)
                fork = Fork(side, va, apex, (l0, l1), collapse, table[collapse][l0])
                found[f, g] = HomotopyWitness(side, f, g, fork, mediator)
                left.discard((f, g))
    return {p: found[p] for p in pairs}


def check_common_fork(cat: FinCat, weqs, side: str = "left") -> CommonForkResult:
    """Must any two related pairs share one mediating weq fork?

    Ordered pairs, diagonal included: that is the strength the
    transitivity argument consumes, which chains one pair against a
    degenerate one on the dual side.

    Each hom pair with a distinct related pair gets one fork index,
    with one bit per mediated set, and two pairs share a fork iff some
    mediated set holds both: iff their bitmasks meet.  The index reads
    forks only until they do, and to the end only for a counterexample.
    A hom pair whose related pairs are all diagonal needs no index: the
    identity fork at its vertex mediates every (h, h).  The forks are
    read off the one-sided relation, so the family axioms must hold.
    """
    return _held(cat, weqs).common_fork(side)


def _common_fork(work: FinCat, transposed, members: frozenset[int], related,
                 rel: Precongruence, side: str) -> CommonForkResult:
    for va, vb in work.hom_pairs():
        # The ordered related pairs of hom(va, vb), diagonal included.
        arrows = work.hom(va, vb)
        pairs = [(f, g) for f in arrows for g in arrows
                 if f == g or (min(f, g), max(f, g)) in rel.pairs]
        if len(pairs) == len(arrows):
            continue  # the identity fork at va mediates every (h, h)
        forks = _ForkIndex(work, transposed, members, related, va, vb)
        # Masks copied from the index only gain bits as it reads on, so
        # a miss is asked of the index again before it counts.
        masks = [0] * len(pairs)
        for i, p1 in enumerate(pairs):
            for j in range(i, len(pairs)):
                if not masks[i] & masks[j]:
                    masks[i], masks[j] = forks.share(p1, pairs[j])
                    if not masks[i] & masks[j]:
                        return CommonForkResult(side, False, (p1, pairs[j]))
    return CommonForkResult(side, True, None)


def check_rc_transitive(cat: FinCat, weqs, side: str = "left"):
    """Exhaustive transitivity check of the closed one-sided relation.

    The relation is reflexive and symmetric by construction, so only
    chains of distinct arrows can break transitivity.  Returns
    (ok, counterexample triple or None).
    """
    return _held(cat, weqs).rc_transitive(side)


@dataclass(frozen=True)
class WhiteheadCertificate:
    """Proof that the homotopy quotient inverts the whole family.

    ``inverse_table`` maps each member to its lowest-index homotopy
    inverse; ``basis`` keeps the two seed relations that generated the
    congruence.
    """

    congruence: Congruence
    inverse_table: dict[int, int]
    basis: tuple[Precongruence, Precongruence]


@dataclass(frozen=True)
class WhiteheadResult:
    """certified / failed (with an emptiness witness) / inconclusive; only
    the last two carry the split generation that ruled out certification."""

    status: str
    congruence: Congruence
    certificate: WhiteheadCertificate | None
    witness: object | None
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
    combination raises; a formally-connected-but-empty hom-set downgrades
    the verdict to failed, and absent any witness it stays inconclusive.
    A given ``family`` must have the members ``weqs`` resolves to, or
    ``ValidationError`` is raised; it stands in for the held session's
    axiom check, and a given ``splitgen`` for its split generation.
    """
    session = _held(cat, weqs)
    if family is None and splitgen is None:
        return session.whitehead
    if family is not None and family.members != session.members:
        raise ValidationError("the given family has other members than the weak equivalences")
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
    """The held session's saturation report.  ``cert`` must certify the
    session's homotopy congruence, or ``ValidationError`` is raised."""
    session = _held(cat, weqs)
    if cert.congruence is not session.congruence and cert.congruence != session.congruence:
        raise ValidationError("the certificate is not on the homotopy congruence of the family")
    return session.saturation


class Analysis:
    """One analysis of ``cat`` with the weak equivalences ``weqs``.

    Each stage is computed on first use and then kept, so the stages
    that build on one another share one family check, one opposite
    category, one homotopy congruence (which keeps its quotient), one
    set of invertible arrows, and per side one closed relation, fork
    condition, set of fork witnesses, common-fork and transitivity
    verdict.  Leg composites come from the transposed table the session
    holds anyway: the opposite's on the left, the category's on the
    right.  No fork index outlives the check that reads it.  The fork
    stages require the family axioms.  ``weqs`` may name arrows or index
    them; identities are implicit, as in documents.
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
        return Precongruence.canonical(self.cat, r_left(self.op, self.members).pairs)

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
        relation there."""
        work = self._work(side)[0]
        key = (_left_closure, side)
        if key not in self._sides:  # the one-sided relation is self.left or self.right
            self._sides[key] = _left_closure(work, getattr(self, side).pairs)
        return work, self._sides[key]

    def fork_condition(self, side: str = "left") -> ForkConditionResult:
        return self._per_side(_fork_condition, side)

    def fork_witnesses(self, side: str = "left") -> dict:
        """A :class:`HomotopyWitness` for each related pair (f, g) before
        the fork condition's counterexample (every pair when it holds),
        keyed and ordered by pair."""
        return self._per_side(_fork_witnesses, side, self.fork_condition(side).counterexample)

    def common_fork(self, side: str = "left") -> CommonForkResult:
        return self._per_side(_common_fork, side)

    def rc_transitive(self, side: str = "left") -> tuple[bool, tuple[int, int, int] | None]:
        """Is the closed one-sided relation transitive?  With the first
        intransitive triple when it is not."""
        key = (intransitive_triple, side)
        if key not in self._sides:
            triple = intransitive_triple(self.closed(side)[1].distinct_pairs)
            self._sides[key] = (triple is None, triple)
        return self._sides[key]

    def _per_side(self, check, side: str, *args):
        if (check, side) not in self._sides:
            self.axioms_hold("family axioms must hold before the fork checks")
            work, rel = self.closed(side)
            self._sides[check, side] = check(work, self._work(side)[1], self.members,
                                             getattr(self, side).pairs, rel, side, *args)
        return self._sides[check, side]

    @cached_property
    def whitehead(self) -> WhiteheadResult:
        return self._certify(self.family, None)

    def _certify(self, family: WeqFamily, splitgen: SplitGenResult | None) -> WhiteheadResult:
        """Whitehead on this session's congruence, gated by the axiom check
        of ``family`` (one with this session's members); a failed or
        inconclusive result carries ``splitgen``, else the session's."""
        if not family.report.axioms_ok:
            raise ValidationError("family axioms must hold before certification")
        cat, members, cong = self.cat, self.members, self.congruence
        if members <= self.sigma:
            # An inverse class is unique, so its lowest member is the
            # lowest-index homotopy inverse.
            q = cong.quotient.quotient
            inverse_table = {w: cong.classes[q.inverse(cong.class_of[w])][0]
                             for w in sorted(members)}
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


def _held(cat: FinCat, weqs) -> Analysis:
    """The session ``cat`` holds for the family ``weqs``.

    A category holds one session, in the ``_analysis`` slot of its
    ``vars`` (as :attr:`FinCat.generators` is kept), for as long as it
    lives.  The session is keyed by its members: names, indices and
    identities left implicit or named all reach the same one, and
    another set of members replaces it.
    """
    members = resolve_weqs(cat, weqs)
    held = vars(cat).get("_analysis")
    if held is None or held.members != members:
        held = vars(cat)["_analysis"] = Analysis(cat, members)
    return held
