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

from .congruence import Congruence, Precongruence, intransitive_triple, least_congruence, sigma_of
from .errors import ValidationError
from .fincat import FinCat, opposite, resolve_weqs
from .weq import SplitGenResult, WeqFamily, check_split_generated, check_weq_axioms

__all__ = [
    "Analysis", "Fork", "HomotopyWitness", "WhiteheadCertificate", "WhiteheadResult",
    "LRComparison", "SaturationReport",
    "r_left", "r_right", "r_left_comp", "r_right_comp",
    "homotopy_congruence", "certify_whitehead", "check_lr_coincide",
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
    return Precongruence(cat, pairs)


def r_right(cat: FinCat, weqs) -> Precongruence:
    """Dual of :func:`r_left`: pairs equalized by pre-composition.

    Computed as the left relation of the opposite category and pulled
    back; arrow indices agree, so the pullback is the identity.
    """
    return Analysis(cat, weqs).right


def _left_closure(work: FinCat, pairs) -> Precongruence:
    """Composition closure of a left relation on ``work``.

    The left relation is already stable under pre-composition (the same
    equalizing member works), so post-composing with every mediator
    h: B -> B' alone reaches the full two-sided closure.
    """
    out = set(pairs)
    for f, g in pairs:
        for h in work.outgoing[work.cod(f)]:
            hf, hg = work.table[h][f], work.table[h][g]
            if hf != hg:
                out.add((min(hf, hg), max(hf, hg)))
    return Precongruence(work, out)


def r_left_comp(cat: FinCat, weqs) -> Precongruence:
    """Composition closure of :func:`r_left`."""
    return Analysis(cat, weqs).closed("left")[1]


def r_right_comp(cat: FinCat, weqs) -> Precongruence:
    """Dual closure: pre-compose the right relation with every mediator."""
    return Precongruence(cat, Analysis(cat, weqs).closed("right")[1].pairs)


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


def _left_weq_forks(cat: FinCat, members: frozenset[int], va: int, vb: int):
    """Yield every left fork of weak equivalences at vertex ``va``, in
    enumeration order, with the ordered pairs of hom(va, vb) arrows it
    mediates."""
    for apex in range(len(cat.objects)):
        legs_pool = cat.hom(va, apex)
        if not legs_pool:
            continue
        mediators = cat.hom(apex, vb)
        for l0 in legs_pool:
            for l1 in legs_pool:
                for sigma in cat.outgoing[apex]:
                    if sigma not in members:
                        continue
                    base = cat.table[sigma][l0]
                    if base != cat.table[sigma][l1] or base not in members:
                        continue
                    fork = Fork("left", va, apex, (l0, l1), sigma, base)
                    supported = frozenset(
                        (cat.table[h][l0], cat.table[h][l1]) for h in mediators)
                    yield fork, supported
                    break  # further collapses mediate the same pairs


def _fork_index(cat: FinCat, members: frozenset[int], va: int, vb: int):
    """The left weq forks at ``va``, indexed by the pairs they mediate.

    Returns (forks, mediated): ``mediated`` maps each ordered pair
    (f, g) of hom(va, vb) arrows to the positions in ``forks`` of the
    forks mediating it, ascending, so the first is the earliest fork in
    enumeration order.  Pairs no fork mediates are absent.
    """
    forks = []
    mediated: dict[tuple[int, int], list[int]] = {}
    for i, (fork, supported) in enumerate(_left_weq_forks(cat, members, va, vb)):
        forks.append(fork)
        for pair in supported:
            mediated.setdefault(pair, []).append(i)
    return forks, mediated


def _bits(positions) -> int:
    """The integer with exactly the given bit positions set."""
    buf = bytearray((max(positions) >> 3) + 1 if positions else 0)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _ordered_relation(cat: FinCat, rel: Precongruence, va: int, vb: int):
    """Ordered pairs of the relation on hom(va, vb), diagonal included."""
    arrows = cat.hom(va, vb)
    related = {(f, g) for f, g in rel.pairs}
    out = []
    for f in arrows:
        for g in arrows:
            if f == g or (min(f, g), max(f, g)) in related:
                out.append((f, g))
    return out


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


def _translate_witness(witness: HomotopyWitness, side: str) -> HomotopyWitness:
    if side == "left":
        return witness
    fork = witness.fork
    return HomotopyWitness(
        "right", witness.f, witness.g,
        Fork("right", fork.vertex, fork.apex, fork.legs, fork.collapse, fork.base),
        witness.mediator)


def check_fork_condition(cat: FinCat, weqs, side: str = "left") -> ForkConditionResult:
    """Does every related pair admit a homotopy over a weq fork?

    Quantifies over the distinct pairs of the closed one-sided relation;
    a witness for (f, g) converts into one for (g, f) by swapping legs,
    and degenerate pairs always have the identity fork, so this is the
    full ordered statement.

    The forks of each hom pair are enumerated once, on first use, into
    an index from ordered pair to mediating forks.  A pair's witness
    uses the earliest fork mediating (f, g) or (g, f), the unswapped
    pair on a tie, with its lowest-index mediator.
    """
    return Analysis(cat, weqs).fork_condition(side)


def _fork_condition(work: FinCat, rel: Precongruence, members: frozenset[int],
                    side: str) -> ForkConditionResult:
    indices = {}
    witnesses = {}
    for f, g in sorted(rel.distinct_pairs):
        va, vb = work.dom(f), work.cod(f)
        if (va, vb) not in indices:
            indices[(va, vb)] = _fork_index(work, members, va, vb)
        forks, mediated = indices[(va, vb)]
        straight, crossed = mediated.get((f, g)), mediated.get((g, f))
        if straight is None and crossed is None:
            return ForkConditionResult(side, False, (f, g), witnesses)
        if straight is not None and (crossed is None or straight[0] <= crossed[0]):
            fork = forks[straight[0]]
        else:
            fork = forks[crossed[0]]
            fork = Fork("left", fork.vertex, fork.apex,
                        (fork.legs[1], fork.legs[0]), fork.collapse, fork.base)
        found = HomotopyWitness("left", f, g, fork, _mediator_for(work, fork, f, g, vb))
        witnesses[(f, g)] = _translate_witness(found, side)
    return ForkConditionResult(side, True, None, witnesses)


def check_common_fork(cat: FinCat, weqs, side: str = "left") -> CommonForkResult:
    """Must any two related pairs share one mediating weq fork?

    Ordered pairs, diagonal included: that is the strength the
    transitivity argument consumes, which chains one pair against a
    degenerate one on the dual side.

    Each hom pair's forks are indexed once by the pairs they mediate;
    two pairs share a fork iff the bitmasks of their fork positions
    meet.
    """
    return Analysis(cat, weqs).common_fork(side)


def _common_fork(work: FinCat, rel: Precongruence, members: frozenset[int],
                 side: str) -> CommonForkResult:
    for va, vb in work.hom_pairs():
        pairs = _ordered_relation(work, rel, va, vb)
        if not pairs:
            continue
        _, mediated = _fork_index(work, members, va, vb)
        masks = [_bits(mediated.get(p, ())) for p in pairs]
        for i, p1 in enumerate(pairs):
            m1 = masks[i]
            for j in range(i, len(pairs)):
                if not m1 & masks[j]:
                    return CommonForkResult(side, False, (p1, pairs[j]))
    return CommonForkResult(side, True, None)


def check_rc_transitive(cat: FinCat, weqs, side: str = "left"):
    """Exhaustive transitivity check of the closed one-sided relation.

    The relation is reflexive and symmetric by construction, so only
    chains of distinct arrows can break transitivity.  Returns
    (ok, counterexample triple or None).
    """
    return Analysis(cat, weqs).rc_transitive(side)


def _rc_transitive(work: FinCat, rel: Precongruence, members: frozenset[int], side: str):
    triple = intransitive_triple(rel.distinct_pairs)
    return triple is None, triple


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
class LRComparison:
    ok: bool
    left: Congruence
    right: Congruence
    both: Congruence
    differing: tuple[int, int, str] | None


def check_lr_coincide(cat: FinCat, weqs) -> LRComparison:
    """Under split generation the one-sided congruences must agree.

    Raises when the family is not split-generated (the comparison is
    only promised there); otherwise reports the three congruences and,
    on a mismatch, the first differing pair and where it differs.
    """
    session = Analysis(cat, weqs)
    session.axioms_hold("family axioms must hold")
    if not session.splitgen.generated:
        raise ValidationError("left/right comparison needs a split-generated family")
    lc = least_congruence(session.left)
    rc = least_congruence(session.right)
    both = session.congruence
    ok = lc == rc == both
    differing = None
    if not ok:
        for f, g in sorted(set(lc.as_pairs()) ^ set(rc.as_pairs())):
            which = "left-only" if lc.related(f, g) else "right-only"
            differing = (f, g, which)
            break
        if differing is None:
            for f, g in sorted(set(both.as_pairs()) ^ set(lc.as_pairs())):
                which = "combined-only" if both.related(f, g) else "one-sided-only"
                differing = (f, g, which)
                break
    return LRComparison(ok, lc, rc, both, differing)


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
    set of invertible arrows and one fork check per side.  A stage
    assigned before its first use (``session.family = ...``) is taken as
    given.  ``weqs`` may name arrows or index them; identities are
    implicit, as in documents.
    """

    def __init__(self, cat: FinCat, weqs):
        self.cat = cat
        self.weqs = tuple(weqs)
        self.members = resolve_weqs(cat, self.weqs)
        self._sides: dict = {}  # per-side stages, by (function, side)

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
        return opposite(self.cat)[0]

    @cached_property
    def left(self) -> Precongruence:
        return r_left(self.cat, self.members)

    @cached_property
    def right(self) -> Precongruence:
        return Precongruence(self.cat, r_left(self.op, self.members).pairs)

    @cached_property
    def congruence(self) -> Congruence:
        return least_congruence(self.left.union(self.right))

    @cached_property
    def sigma(self) -> frozenset[int]:
        """The arrows invertible in the homotopy quotient."""
        return sigma_of(self.cat, self.congruence)

    def closed(self, side: str) -> tuple[FinCat, Precongruence]:
        """The category a side's forks live in (``cat`` on the left, its
        opposite on the right) and the closed one-sided relation there."""
        if side == "left":
            work, base = self.cat, self.left
        elif side == "right":
            work, base = self.op, self.right
        else:
            raise ValidationError(f"side must be left or right, not {side!r}")
        key = (_left_closure, side)
        if key not in self._sides:
            self._sides[key] = _left_closure(work, base.pairs)
        return work, self._sides[key]

    def fork_condition(self, side: str = "left") -> ForkConditionResult:
        return self._per_side(_fork_condition, side)

    def common_fork(self, side: str = "left") -> CommonForkResult:
        return self._per_side(_common_fork, side)

    def rc_transitive(self, side: str = "left") -> tuple[bool, tuple[int, int, int] | None]:
        return self._per_side(_rc_transitive, side)

    def _per_side(self, check, side: str):
        if (check, side) not in self._sides:
            self._sides[check, side] = check(*self.closed(side), self.members, side)
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
