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
"""

from __future__ import annotations

from dataclasses import dataclass

from .congruence import Congruence, Precongruence, least_congruence, quotient, sigma_of
from .errors import ValidationError
from .fincat import FinCat, opposite
from .weq import SplitGenResult, WeqFamily, check_split_generated, check_weq_axioms

__all__ = [
    "Fork", "HomotopyWitness", "WhiteheadCertificate", "WhiteheadResult",
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
    pairs = []
    for f, g in cat.parallel_pairs():
        for w in cat.outgoing[cat.cod(f)]:
            if w in members and cat.table[w][f] == cat.table[w][g]:
                pairs.append((f, g))
                break
    return Precongruence(cat, pairs)


def r_right(cat: FinCat, weqs) -> Precongruence:
    """Dual of :func:`r_left`: pairs equalized by pre-composition.

    Computed as the left relation of the opposite category and pulled
    back; arrow indices agree, so the pullback is the identity.
    """
    op, w2 = opposite(cat, weqs)
    return Precongruence(cat, r_left(op, w2).pairs)


def r_left_comp(cat: FinCat, weqs) -> Precongruence:
    """Composition closure of :func:`r_left`.

    The left relation is already stable under pre-composition (the same
    equalizing member works), so post-composing with every mediator
    h: B -> B' alone reaches the full two-sided closure.
    """
    base = r_left(cat, weqs)
    out = set(base.pairs)
    for f, g in base.pairs:
        for h in cat.outgoing[cat.cod(f)]:
            hf, hg = cat.table[h][f], cat.table[h][g]
            if hf != hg:
                out.add((min(hf, hg), max(hf, hg)))
    return Precongruence(cat, out)


def r_right_comp(cat: FinCat, weqs) -> Precongruence:
    """Dual closure: pre-compose the right relation with every mediator."""
    op, w2 = opposite(cat, weqs)
    return Precongruence(cat, r_left_comp(op, w2).pairs)


def homotopy_congruence(cat: FinCat, weqs) -> Congruence:
    """Least congruence containing both one-sided relations."""
    return least_congruence(r_left(cat, weqs).union(r_right(cat, weqs)))


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


def _fork_env(cat: FinCat, weqs, side: str):
    if side == "left":
        members = frozenset(cat.mor(w) for w in weqs)
        return cat, members, r_left_comp(cat, weqs)
    if side == "right":
        op, members = opposite(cat, weqs)
        return op, members, r_left_comp(op, members)
    raise ValidationError(f"side must be left or right, not {side!r}")


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
    work, members, rel = _fork_env(cat, weqs, side)
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
    work, members, rel = _fork_env(cat, weqs, side)
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
    work, _, rel = _fork_env(cat, weqs, side)
    adj: dict[int, set[int]] = {}
    for f, g in rel.distinct_pairs:
        adj.setdefault(f, set()).add(g)
        adj.setdefault(g, set()).add(f)
    for f in sorted(adj):
        for g in sorted(adj[f]):
            for h in sorted(adj[g]):
                if h != f and h not in adj[f]:
                    return False, (f, g, h)
    return True, None


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
    """
    if family is None:
        family = check_weq_axioms(cat, weqs)
    if not family.report.axioms_ok:
        raise ValidationError("family axioms must hold before certification")
    members = family.members

    left = r_left(cat, members)
    right = r_right(cat, members)
    cong = least_congruence(left.union(right))
    invertible = sigma_of(cat, cong)

    if members <= invertible:
        inverse_table = {}
        for w in sorted(members):
            x, y = cat.dom(w), cat.cod(w)
            idx, idy = cat.identity[x], cat.identity[y]
            for g in cat.hom(y, x):
                if cong.related(cat.table[g][w], idx) and cong.related(cat.table[w][g], idy):
                    inverse_table[w] = g
                    break
        cert = WhiteheadCertificate(cong, inverse_table, (left, right))
        return WhiteheadResult("certified", cong, cert, None, family, splitgen)

    if splitgen is None:
        splitgen = check_split_generated(family)
    if splitgen.generated:
        raise RuntimeError(
            "internal inconsistency: split-generated family failed certification")

    from .zigzag import nonfullness_witness  # deferred: zigzag imports this module
    witness = nonfullness_witness(cat, members)
    status = "failed" if witness is not None else "inconclusive"
    return WhiteheadResult(status, cong, None, witness, family, splitgen)


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
    family = check_weq_axioms(cat, weqs)
    if not family.report.axioms_ok:
        raise ValidationError("family axioms must hold")
    if not check_split_generated(family).generated:
        raise ValidationError("left/right comparison needs a split-generated family")
    lc = least_congruence(r_left(cat, family.members))
    rc = least_congruence(r_right(cat, family.members))
    both = homotopy_congruence(cat, family.members)
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
    family = check_weq_axioms(cat, weqs)
    if not family.report.axioms_ok:
        raise ValidationError("family axioms must hold")
    members = family.members
    q = quotient(cat, cert.congruence)
    qcat = q.quotient

    violations = []
    for f in range(len(cat.morphisms)):
        if f in members:
            continue
        cls = cert.congruence.class_of[f]
        x, y = qcat.dom(cls), qcat.cod(cls)
        for g in qcat.hom(y, x):
            if (qcat.table[g][cls] == qcat.identity[x]
                    and qcat.table[cls][g] == qcat.identity[y]):
                violations.append(f)
                break

    weak_inv = family.report.weak_invertibility_ok
    split_ok = check_split_generated(family).generated
    fork_l = check_fork_condition(cat, members, "left").ok
    fork_r = check_fork_condition(cat, members, "right").ok
    predicted = weak_inv and split_ok and fork_l and fork_r
    if predicted and violations:
        raise RuntimeError(
            "internal inconsistency: saturation predicted but violated by "
            + cat.mor_name(violations[0]))
    return SaturationReport(
        saturated=not violations,
        violations=tuple(violations),
        predicted=predicted,
        weak_invertibility=weak_inv,
        split_generated=split_ok,
        fork_left=fork_l,
        fork_right=fork_r,
    )
