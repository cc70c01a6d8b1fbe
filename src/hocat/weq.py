"""Weak equivalence families: axioms, split arrows, split generation.

A weak equivalence family is any set of arrows meant to satisfy two
axioms: it includes the identities, and among f, g, g∘f membership of
any two forces the third (two out of three).  A third, stricter property
is tracked separately: weak invertibility, where f∘g and h∘f both in the
family force f in as well.

An arrow s is split when some r satisfies r∘s = id; then s is a section
and r a retraction.  A family is split-generated when every member
factors as a composite of split members.  The certificate records, for
every member, one shortest such factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ValidationError
from .fincat import FinCat

__all__ = [
    "AxiomReport", "WeqFamily", "SplitCertificate", "SplitGenResult",
    "check_weq_axioms", "find_splits", "check_split_generated",
]


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the two family axioms plus weak invertibility.

    The identities axiom holds by construction: missing identities are
    inserted and listed in ``inserted_identities``, so ``axioms_ok`` is
    the two out of three verdict.  Witnesses are morphism-index tuples:
    two_of_three gives (f, g, g∘f) with exactly the absent one missing
    from the family; weak invertibility gives (f, g, h) with f∘g and h∘f
    in the family but f not.
    """

    inserted_identities: tuple[int, ...]
    two_of_three_ok: bool
    two_of_three_witness: tuple[int, int, int] | None
    weak_invertibility_ok: bool
    weak_invertibility_witness: tuple[int, int, int] | None

    @property
    def axioms_ok(self) -> bool:
        return self.two_of_three_ok


@dataclass(frozen=True)
class WeqFamily:
    """A checked family: base category, members, axiom report."""

    base: FinCat
    members: frozenset[int]
    report: AxiomReport


def check_weq_axioms(cat: FinCat, weqs: Iterable) -> WeqFamily:
    """Check the family axioms exhaustively over the composition table.

    Missing identities are inserted first and recorded in the report;
    input documents treat them as implicit, so their absence is not a
    failure.  Weak invertibility is reported alongside but does not
    gate anything here.
    """
    declared = {cat.mor(w) for w in weqs}
    inserted = tuple(sorted(cat.identity_set - declared))
    members = cat.identity_set | declared

    two_ok, two_wit = True, None
    g = _two_of_three_row(cat, members)
    if g is not None:
        f = next(f for f in cat.incoming[cat.dom(g)]
                 if (f in members) + (g in members) + (cat.table[g][f] in members) == 2)
        two_ok, two_wit = False, (f, g, cat.table[g][f])

    weak_ok, weak_wit = True, None
    if two_ok:
        for f in range(len(cat.morphisms)):
            if f in members:
                continue
            g_hit = next((g for g in cat.incoming[cat.dom(f)]
                          if cat.table[f][g] in members), None)
            if g_hit is None:
                continue
            h_hit = next((h for h in cat.outgoing[cat.cod(f)]
                          if cat.table[h][f] in members), None)
            if h_hit is not None:
                weak_ok, weak_wit = False, (f, g_hit, h_hit)
                break

    report = AxiomReport(
        inserted_identities=inserted,
        two_of_three_ok=two_ok,
        two_of_three_witness=two_wit,
        weak_invertibility_ok=weak_ok,
        weak_invertibility_witness=weak_wit,
    )
    return WeqFamily(cat, members, report)


def _two_of_three_row(cat: FinCat, members: frozenset[int]) -> int | None:
    """The lowest g with some f for which two of f, g, g∘f are members.

    Row g is read at the arrows into its domain, members and the rest
    apart.  A member g fails when g∘f leaves the family for a member f
    or enters it for any other f; any other g fails when g∘f is a member
    for some member f.
    """
    into = [([], []) for _ in cat.objects]  # by codomain: members, the rest
    for f, m in enumerate(cat.morphisms):
        into[m.cod][f not in members].append(f)
    for g, row in enumerate(cat.table):
        inside, outside = into[cat.morphisms[g].dom]
        hits = map(row.__getitem__, inside)
        if g in members:
            if not members.issuperset(hits) or not members.isdisjoint(
                    map(row.__getitem__, outside)):
                return g
        elif not members.isdisjoint(hits):
            return g
    return None


def find_splits(cat: FinCat) -> frozenset[tuple[int, int]]:
    """All ordered pairs (s, r) with r∘s an identity: r runs over
    hom(cod s, dom s), and only r∘s is tested."""
    table, identity = cat.table, cat.identity
    return frozenset((s, r) for s, m in enumerate(cat.morphisms)
                     for r in cat.hom(m.cod, m.dom) if table[r][s] == identity[m.dom])


@dataclass(frozen=True)
class SplitCertificate:
    """Witness that a family is generated by its split members.

    ``split_weqs`` holds (member, one-sided inverse, kind) triples, kind
    "section" when inverse∘member = id and "retraction" when
    member∘inverse = id.  ``decompositions`` maps every family member to
    a shortest factorization into split members, first-applied first;
    identities factor as themselves.
    """

    split_weqs: tuple[tuple[int, int, str], ...]
    decompositions: dict[int, tuple[int, ...]]


@dataclass(frozen=True)
class SplitGenResult:
    """Certificate on success, else the lowest-index member left out."""

    certificate: SplitCertificate | None
    missing: int | None

    @property
    def generated(self) -> bool:
        return self.certificate is not None


def check_split_generated(family: WeqFamily) -> SplitGenResult:
    """Decide whether every member factors through split members.

    Breadth-first saturation over the composition table restricted to
    the family: start from the split members, append one composable
    split member at a time, and memoize the first (hence shortest)
    factorization of each composite reached.  The family axioms keep
    every such composite in the family, so at most |family| rounds happen.
    """
    if not family.report.axioms_ok:
        raise ValidationError("split generation needs the family axioms to hold")
    cat = family.base
    members = family.members

    splits = find_splits(cat)
    triples = []
    for s, r in sorted(splits):
        if s in members:
            triples.append((s, r, "section"))
        if r in members:
            triples.append((r, s, "retraction"))
    split_members = sorted({t[0] for t in triples})

    decomp: dict[int, tuple[int, ...]] = {}
    frontier = []
    out: list[list[int]] = [[] for _ in cat.objects]  # split members by domain
    for s in split_members:
        decomp[s] = (s,)
        frontier.append(s)
        out[cat.morphisms[s].dom].append(s)
    while frontier:
        nxt = []
        for x in frontier:
            for s in out[cat.morphisms[x].cod]:
                c = cat.table[s][x]
                if c in members and c not in decomp:
                    decomp[c] = decomp[x] + (s,)
                    nxt.append(c)
        frontier = nxt

    leftover = sorted(m for m in members if m not in decomp)
    if leftover:
        return SplitGenResult(None, leftover[0])
    cert = SplitCertificate(tuple(triples), {m: decomp[m] for m in sorted(members)})
    return SplitGenResult(cert, None)
