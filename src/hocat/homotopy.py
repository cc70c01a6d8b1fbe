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
the transitivity and saturation consequences need.

An :class:`Analysis` session computes each of these once for one
category and family, on first use, and shares it between the stages
that build on it; the public functions below each read one stage from a
fresh session.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .congruence import Congruence, Precongruence, intransitive_triple, least_congruence, sigma_of
from .errors import ValidationError
from .fincat import FinCat, opposite, resolve_weqs
from .weq import SplitGenResult, WeqFamily, check_split_generated, check_weq_axioms

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
    w: B -> C.  Degenerate pairs are not stored.
    """
    members = frozenset(cat.mor(w) for w in weqs)
    rows = [[cat.table[w] for w in out if w in members] for out in cat.outgoing]
    pairs = []
    for f, g in cat.parallel_pairs():
        for row in rows[cat.morphisms[f].cod]:
            if row[f] == row[g]:
                pairs.append((f, g))
                break
    return Precongruence.canonical(cat, pairs)


def r_right(cat: FinCat, weqs) -> Precongruence:
    """Dual of :func:`r_left`: pairs equalized by pre-composition.

    Computed as the left relation of the opposite category and pulled
    back; arrow indices agree, so the pullback is the identity.
    """
    return Analysis(cat, weqs).right


def _gather(keys):
    """The cells of a row at ``keys``, always as a tuple (a one-key
    ``itemgetter`` returns a scalar)."""
    if len(keys) == 1:
        key, = keys
        return lambda row: (row[key],)
    return itemgetter(*keys) if keys else lambda row: ()


def _left_closure(work: FinCat, transposed, pairs) -> Precongruence:
    """Composition closure of a left relation on ``work``.

    The left relation is already stable under pre-composition (the same
    equalizing member works), so post-composing with every mediator
    h: B -> B' alone reaches the full two-sided closure.

    ``transposed[f][h]`` is h∘f in ``work``, so each leg's composites
    with every mediator are one gather of its transposed row.
    """
    gathers: dict = {}  # one per codomain
    morphisms = work.morphisms
    out = set(pairs)
    for f, g in pairs:
        cod = morphisms[f].cod
        if cod not in gathers:
            gathers[cod] = _gather(work.outgoing[cod])
        gather = gathers[cod]
        out.update((hf, hg) if hf < hg else (hg, hf)
                   for hf, hg in zip(gather(transposed[f]), gather(transposed[g]))
                   if hf != hg)
    return Precongruence.canonical(work, out)


def r_left_comp(cat: FinCat, weqs) -> Precongruence:
    """Composition closure of :func:`r_left`."""
    return Analysis(cat, weqs).closed("left")[1]


def r_right_comp(cat: FinCat, weqs) -> Precongruence:
    """Dual closure: pre-compose the right relation with every mediator."""
    return Precongruence.canonical(cat, Analysis(cat, weqs).closed("right")[1].pairs)


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


def _left_weq_forks(cat: FinCat, transposed, members: frozenset[int], va: int, vb: int):
    """Yield every left fork of weak equivalences at vertex ``va``, in
    enumeration order, with the set of ordered pairs of hom(va, vb)
    arrows it mediates.  ``transposed[f][h]`` is h∘f; a leg's
    composites are gathered the first time a fork uses the leg."""
    table = cat.table
    for apex in range(len(cat.objects)):
        legs_pool = cat.hom(va, apex)
        if not legs_pool:
            continue
        gather = _gather(cat.hom(apex, vb))
        image = {}
        collapses = [(sigma, table[sigma]) for sigma in cat.outgoing[apex] if sigma in members]
        for l0 in legs_pool:
            for l1 in legs_pool:
                for sigma, row in collapses:
                    base = row[l0]
                    if base != row[l1] or base not in members:
                        continue
                    for leg in (l0, l1):
                        if leg not in image:
                            image[leg] = gather(transposed[leg])
                    fork = Fork("left", va, apex, (l0, l1), sigma, base)
                    yield fork, frozenset(zip(image[l0], image[l1]))
                    break  # further collapses mediate the same pairs


class _ForkIndex:
    """The left weq forks at ``va`` towards ``vb``, one record per
    mediated set, read from the enumeration only as far as the
    questions asked of it need.

    The distinct sets of hom(va, vb) pairs that forks mediate are
    numbered in the order they first appear, and ``records[i]`` is the
    earliest fork mediating set i; ``masks`` maps each ordered pair
    (f, g) to the bitmask of the sets read so far that contain it.  A
    later fork of a set mediates only what its earliest one does, so
    the lowest bit of a pair's mask names the earliest fork mediating
    it; reading on only adds higher bits, so that holds as soon as the
    mask is nonzero.  A question reads to the end only when its answer
    is no.

    A set is recognized again by its hash, its size and the masks of
    its pairs (a set of that size whose every pair has bit i is set i),
    so the mediated sets themselves are not kept.
    """

    def __init__(self, cat: FinCat, transposed, members: frozenset[int], va: int, vb: int):
        self._unread = _left_weq_forks(cat, transposed, members, va, vb)
        self.records: list[Fork] = []
        self.masks: dict[tuple[int, int], int] = {}
        # the records of the sets with each (hash, size)
        self._by_key: dict[tuple[int, int], list[int]] = {}

    def _read(self) -> bool:
        """Read the next fork in; False once every fork is read."""
        item = next(self._unread, None)
        if item is None:
            return False
        fork, mediated = item
        masks = self.masks
        same = self._by_key.setdefault((hash(mediated), len(mediated)), [])
        for i in same:
            bit = 1 << i
            if all(masks.get(p, 0) & bit for p in mediated):
                return True
        i = len(self.records)
        same.append(i)
        self.records.append(fork)
        bit = 1 << i
        for p in mediated:
            masks[p] = masks.get(p, 0) | bit
        return True

    def either(self, f: int, g: int) -> tuple[int, int]:
        """The masks of (f, g) and (g, f), read until one is nonzero."""
        masks = self.masks
        while not (masks.get((f, g), 0) or masks.get((g, f), 0)) and self._read():
            pass
        return masks.get((f, g), 0), masks.get((g, f), 0)

    def share(self, p, q) -> tuple[int, int]:
        """The masks of pairs p and q, read until they meet."""
        masks = self.masks
        while not masks.get(p, 0) & masks.get(q, 0) and self._read():
            pass
        return masks.get(p, 0), masks.get(q, 0)


def _mediator_for(cat: FinCat, fork: Fork, f: int, g: int, vb: int):
    for h in cat.hom(fork.apex, vb):
        if cat.table[h][fork.legs[0]] == f and cat.table[h][fork.legs[1]] == g:
            return h
    return None


@dataclass(frozen=True)
class ForkConditionResult:
    side: str
    ok: bool
    counterexample: tuple[int, int] | None
    witnesses: dict


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

    Both fork checks of a side read one fork index per hom pair, kept
    by the session, with one record per set of pairs that forks mediate;
    the index reads forks only until each pair's first one is found.
    A pair's witness uses the earliest fork mediating (f, g) or (g, f),
    the unswapped pair on a tie, with its lowest-index mediator.
    """
    return Analysis(cat, weqs).fork_condition(side)


def _fork_condition(work: FinCat, rel: Precongruence, index, side: str) -> ForkConditionResult:
    witnesses = {}
    for f, g in sorted(rel.distinct_pairs):
        vb = work.cod(f)
        forks = index(work.dom(f), vb)
        straight, swapped = forks.either(f, g)
        either = straight | swapped
        if not either:
            return ForkConditionResult(side, False, (f, g), witnesses)
        low = either & -either
        fork = forks.records[low.bit_length() - 1]
        legs = fork.legs if straight & low else fork.legs[::-1]
        fork = Fork(side, fork.vertex, fork.apex, legs, fork.collapse, fork.base)
        witnesses[(f, g)] = HomotopyWitness(side, f, g, fork, _mediator_for(work, fork, f, g, vb))
    return ForkConditionResult(side, True, None, witnesses)


def check_common_fork(cat: FinCat, weqs, side: str = "left") -> CommonForkResult:
    """Must any two related pairs share one mediating weq fork?

    Ordered pairs, diagonal included: that is the strength the
    transitivity argument consumes, which chains one pair against a
    degenerate one on the dual side.

    The session's fork index of each hom pair keeps one record per
    mediated set, and two pairs share a fork iff some mediated set
    holds both: iff their bitmasks of sets meet.  The index reads forks
    only until they do, and to the end only for a counterexample.
    """
    return Analysis(cat, weqs).common_fork(side)


def _common_fork(work: FinCat, rel: Precongruence, index, side: str) -> CommonForkResult:
    for va, vb in work.hom_pairs():
        # The ordered related pairs of hom(va, vb), diagonal included.
        arrows = work.hom(va, vb)
        pairs = [(f, g) for f in arrows for g in arrows
                 if f == g or (min(f, g), max(f, g)) in rel.pairs]
        forks = index(va, vb)
        # Masks copied here only gain bits as the index reads on, so a
        # miss is asked of the index again before it counts.
        masks = [forks.masks.get(p, 0) for p in pairs]
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
    return Analysis(cat, weqs).rc_transitive(side)


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
    """certified / failed (with an emptiness witness) / inconclusive."""

    status: str
    congruence: Congruence
    certificate: WhiteheadCertificate | None
    witness: object | None
    family: WeqFamily
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
    ``family`` and ``splitgen``, when given, are used as they are.
    """
    session = Analysis(cat, weqs if family is None else family.members)
    if family is not None:
        session.family = family
    if splitgen is not None:
        session.splitgen = splitgen
    return session.whitehead


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
    session = Analysis(cat, weqs)
    session.congruence = cert.congruence
    return session.saturation


class Analysis:
    """One analysis of ``cat`` with the weak equivalences ``weqs``.

    Each stage is computed on first use and then kept, so the stages
    that build on one another share one family check, one opposite
    category, one homotopy congruence (which keeps its quotient), one
    set of invertible arrows, one fork check per side and one fork index
    per side and hom pair, read by both fork checks only as far as their
    answers need and let go once both are answered.  Leg composites come from the transposed table the
    session holds anyway: the opposite's on the left, the category's on
    the right.  A stage
    assigned before its first use (``session.family = ...``) is taken as
    given.  ``weqs`` may name arrows or index them; identities are
    implicit, as in documents.
    """

    def __init__(self, cat: FinCat, weqs):
        self.cat = cat
        self.weqs = tuple(weqs)
        self.members = resolve_weqs(cat, self.weqs)
        # per-side stages by (function, side); a side's fork indices by
        # (va, vb) under (_ForkIndex, side), until both fork checks of
        # the side are answered
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
        work, transposed = self._work(side)
        key = (_left_closure, side)
        if key not in self._sides:
            base = self.left if side == "left" else self.right
            self._sides[key] = _left_closure(work, transposed, base.pairs)
        return work, self._sides[key]

    def fork_condition(self, side: str = "left") -> ForkConditionResult:
        return self._per_side(_fork_condition, side)

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

    def _per_side(self, check, side: str):
        if (check, side) not in self._sides:
            work, rel = self.closed(side)
            transposed = self._work(side)[1]
            indices = self._sides.setdefault((_ForkIndex, side), {})

            def index(va: int, vb: int) -> _ForkIndex:
                if (va, vb) not in indices:
                    indices[va, vb] = _ForkIndex(work, transposed, self.members, va, vb)
                return indices[va, vb]
            self._sides[check, side] = check(work, rel, index, side)
            if (_fork_condition, side) in self._sides and (_common_fork, side) in self._sides:
                indices.clear()  # both answers are kept; nothing reads the side's forks again
        return self._sides[check, side]

    @cached_property
    def whitehead(self) -> WhiteheadResult:
        family = self.axioms_hold("family axioms must hold before certification")
        cat, members, cong = self.cat, self.members, self.congruence
        if members <= self.sigma:
            # An inverse class is unique, so its lowest member is the
            # lowest-index homotopy inverse.
            q = cong.quotient.quotient
            inverse_table = {w: cong.classes[q.inverse(cong.class_of[w])][0]
                             for w in sorted(members)}
            cert = WhiteheadCertificate(cong, inverse_table, (self.left, self.right))
            # Certification needs no split generation: report it only if known.
            return WhiteheadResult("certified", cong, cert, None, family,
                                   vars(self).get("splitgen"))

        if self.splitgen.generated:
            raise RuntimeError(
                "internal inconsistency: split-generated family failed certification")

        from .zigzag import nonfullness_witness  # deferred: zigzag imports this module
        witness = nonfullness_witness(cat, members)
        status = "failed" if witness is not None else "inconclusive"
        return WhiteheadResult(status, cong, None, witness, family, self.splitgen)

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
