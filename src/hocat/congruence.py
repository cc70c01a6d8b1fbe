"""Congruences on finite categories and the quotients they induce.

A precongruence is a bag of unordered relations between parallel arrows,
one relation per hom-set.  A congruence is the certified form: an
equivalence relation on every hom-set that is closed under composition
on both sides, so the quotient category exists.  ``least_congruence``
produces the smallest congruence containing a given precongruence via
union-find plus a worklist that re-fires composition closure until
nothing changes.

Pairs are stored unordered as (min index, max index); symmetry is free.
A precongruence keeps whatever pairs it was given, including degenerate
(f, f) ones.  A congruence stores a partition instead, where reflexivity
is implicit, and builds its quotient category once.  ``sigma_of`` reads
that quotient for the arrows invertible up to the congruence.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable

from .errors import ValidationError
from .fincat import CatFunctor, FinCat, Mor

__all__ = [
    "Precongruence", "Congruence", "QuotientResult",
    "least_congruence", "quotient",
    "kernel_congruence", "sigma_of",
]


class Precongruence:
    """Unordered parallel-pair relations over a fixed base category."""

    def __init__(self, base: FinCat, pairs: Iterable[tuple[int, int]] = ()):
        self.base = base
        canon = set()
        for f, g in pairs:
            fi, gi = base.mor(f), base.mor(g)
            mf, mg = base.morphisms[fi], base.morphisms[gi]
            if mf.dom != mg.dom or mf.cod != mg.cod:
                raise ValidationError(f"pair ({mf.name!r}, {mg.name!r}) is not parallel")
            canon.add((fi, gi) if fi < gi else (gi, fi))
        self.pairs = frozenset(canon)

    @classmethod
    def canonical(cls, base: FinCat, pairs: Iterable[tuple[int, int]]) -> "Precongruence":
        """Trust ``pairs`` as already canonical: parallel index pairs
        (f, g) with f <= g.  For relations built from ``base``'s own
        tables, which need no resolving or endpoint check."""
        rel = cls.__new__(cls)
        rel.base = base
        rel.pairs = frozenset(pairs)
        return rel

    @property
    def distinct_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(p for p in self.pairs if p[0] != p[1])

    def union(self, other: "Precongruence") -> "Precongruence":
        if other.base is not self.base and other.base != self.base:
            raise ValidationError("cannot union relations over different categories")
        return Precongruence.canonical(self.base, self.pairs | other.pairs)

    def __eq__(self, other):
        if not isinstance(other, Precongruence):
            return NotImplemented
        return self.base == other.base and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Precongruence({len(self.pairs)} pairs)"


class Congruence:
    """A certified congruence, stored as a partition of each hom-set.

    The constructor checks that the classes partition hom-sets into
    parallel blocks and that the relation is closed under composition on
    both sides; invalid input raises.  Classes are numbered by their
    lowest member, so equal congruences compare equal structurally.
    """

    def __init__(self, base: FinCat, classes: Iterable[Iterable[int]]):
        self.base = base
        n = len(base.morphisms)
        blocks = [tuple(sorted(base.mor(m) for m in cls)) for cls in classes]
        seen: set[int] = set()
        for cls in blocks:
            if not cls:
                raise ValidationError("empty congruence class")
            d, c = base.dom(cls[0]), base.cod(cls[0])
            for m in cls:
                if m in seen:
                    raise ValidationError(
                        f"morphism {base.mor_name(m)!r} appears in two classes")
                seen.add(m)
                if (base.dom(m), base.cod(m)) != (d, c):
                    raise ValidationError(
                        f"class mixing non-parallel arrows at {base.mor_name(m)!r}")
        if len(seen) != n:
            missing = next(i for i in range(n) if i not in seen)
            raise ValidationError(
                f"partition misses morphism {base.mor_name(missing)!r}")
        blocks.sort(key=lambda cls: cls[0])
        self.classes = tuple(blocks)
        class_of = [0] * n
        for ci, cls in enumerate(self.classes):
            for m in cls:
                class_of[m] = ci
        self.class_of = tuple(class_of)
        self._check_closure()

    def _check_closure(self):
        # Closure against the representative suffices: transitivity carries
        # it to every pair in the class.  The two sides can be checked
        # apart, because the classes partition each hom-set: from
        # m∘u ~ rep∘u, post-composing within the class of rep∘u gives
        # v∘m∘u ~ v∘rep∘u.
        base, class_of, table = self.base, self.class_of, self.base.table
        for cls in self.classes:
            rep = cls[0]
            d, c = base.dom(rep), base.cod(rep)
            for m in cls[1:]:
                for u in base.incoming[d]:
                    if class_of[table[rep][u]] != class_of[table[m][u]]:
                        self._not_closed(rep, m, u, base.identity[c])
                for v in base.outgoing[c]:
                    if class_of[table[v][rep]] != class_of[table[v][m]]:
                        self._not_closed(rep, m, base.identity[d], v)

    def _not_closed(self, rep, m, u, v):
        name = self.base.mor_name
        raise ValidationError(
            "relation is not closed under composition: "
            f"({name(rep)!r}, {name(m)!r}) composed with u={name(u)!r}, v={name(v)!r}")

    def related(self, f, g) -> bool:
        return self.class_of[self.base.mor(f)] == self.class_of[self.base.mor(g)]

    def nonsingleton_classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(cls for cls in self.classes if len(cls) > 1)

    def as_pairs(self) -> frozenset[tuple[int, int]]:
        """All distinct related pairs, canonically ordered."""
        out = set()
        for cls in self.classes:
            for i, f in enumerate(cls):
                for g in cls[i + 1:]:
                    out.add((f, g))
        return frozenset(out)

    @cached_property
    def quotient(self) -> "QuotientResult":
        """The quotient category, built on first use and then kept."""
        return QuotientResult(self)

    @staticmethod
    def discrete(base: FinCat) -> "Congruence":
        return Congruence(base, [(i,) for i in range(len(base.morphisms))])

    def __eq__(self, other):
        if not isinstance(other, Congruence):
            return NotImplemented
        return self.base == other.base and self.classes == other.classes

    def __hash__(self):
        return hash(self.classes)

    def __repr__(self):
        big = sum(1 for c in self.classes if len(c) > 1)
        return f"Congruence({len(self.classes)} classes, {big} nontrivial)"


def find_root(parent, x: int) -> int:
    """The root of ``x`` in the union-find forest ``parent`` (a list or
    dict from each element to its parent), halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def least_congruence(rel: Precongruence) -> Congruence:
    """The smallest congruence containing ``rel``.

    Union-find per hom-set with a worklist: each newly merged pair
    re-fires one-sided composition closure, and transitivity inside the
    union-find carries the two-sided consequences to a fixpoint.
    """
    base = rel.base
    n = len(base.morphisms)
    parent = list(range(n))
    work = list(rel.pairs)
    while work:
        f, g = work.pop()
        rf, rg = find_root(parent, f), find_root(parent, g)
        if rf == rg:
            continue
        if rf > rg:
            rf, rg = rg, rf
        parent[rg] = rf
        d, c = base.dom(f), base.cod(f)
        for u in base.incoming[d]:
            work.append((base.table[f][u], base.table[g][u]))
        for v in base.outgoing[c]:
            work.append((base.table[v][f], base.table[v][g]))

    groups: dict[int, list[int]] = {}
    for m in range(n):
        groups.setdefault(find_root(parent, m), []).append(m)
    return Congruence(base, groups.values())


class QuotientResult:
    """A quotient category together with its projection functor."""

    def __init__(self, congruence: Congruence):
        base = congruence.base
        self.congruence = congruence
        classes = congruence.classes
        obj_count = len(base.objects)
        morphisms = tuple(
            Mor(f"[{base.mor_name(cls[0])}]", base.dom(cls[0]), base.cod(cls[0]))
            for cls in classes)
        identity = tuple(congruence.class_of[base.identity[x]] for x in range(obj_count))
        k = len(classes)
        table = [[-1] * k for _ in range(k)]
        for gi, gcls in enumerate(classes):
            for fi, fcls in enumerate(classes):
                c = base.table[gcls[0]][fcls[0]]
                if c >= 0:
                    table[gi][fi] = congruence.class_of[c]
        self.quotient = FinCat(base.objects, morphisms, identity, table)
        self.projection = CatFunctor(
            base, self.quotient,
            on_objects=tuple(range(obj_count)),
            on_morphisms=congruence.class_of)


def quotient(cat: FinCat, congruence: Congruence) -> QuotientResult:
    """Quotient ``cat`` by a certified congruence.

    Composition of classes is independent of representatives exactly
    because the congruence is closed; the Congruence constructor has
    already certified that, and CatFunctor validation of the projection
    re-checks the resulting table exhaustively.  The result is the
    congruence's own :attr:`Congruence.quotient`, built once.
    """
    if congruence.base != cat:
        raise ValidationError("congruence was built over a different category")
    return congruence.quotient


def kernel_congruence(functor: CatFunctor) -> Congruence:
    """Identify parallel arrows with the same image."""
    src = functor.source
    groups: dict[tuple[int, int, int], list[int]] = {}
    for f in range(len(src.morphisms)):
        key = (src.dom(f), src.cod(f), functor.on_morphisms[f])
        groups.setdefault(key, []).append(f)
    return Congruence(src, groups.values())


def sigma_of(cat: FinCat, cong: Congruence) -> frozenset[int]:
    """Arrows invertible up to the congruence ``cong``.

    f qualifies when its class has an inverse in the quotient, that is,
    when some g: Y -> X has g∘f related to id_X and f∘g related to id_Y.
    Honest isomorphisms always qualify, whatever the congruence.
    """
    if cong.base != cat:
        raise ValidationError("congruence was built over a different category")
    qcat = cong.quotient.quotient
    invertible = [qcat.inverse(c) is not None for c in range(len(cong.classes))]
    return frozenset(f for f, c in enumerate(cong.class_of) if invertible[c])


def intransitive_triple(pairs) -> tuple[int, int, int] | None:
    """First (f, g, h) in index order with f~g and g~h but not f~h.

    ``pairs`` are the distinct unordered pairs of a reflexive,
    symmetric relation; None means the relation is transitive.

    The relation is transitive iff each class of its union-find closure
    is a clique, that is, holds C(k, 2) pairs on its k arrows.  A class
    holds at most that many, so it suffices that the pairs number
    Σ C(k, 2) over the classes; only when they fall short are the chains
    scanned for the triple.  Pairs are counted once each, as (f, g)
    with f < g.
    """
    parent = {x: x for pair in pairs for x in pair}
    for f, g in pairs:
        rf, rg = find_root(parent, f), find_root(parent, g)
        if rf != rg:
            parent[rg] = rf
    size: dict[int, int] = {}
    for x in parent:
        root = find_root(parent, x)
        size[root] = size.get(root, 0) + 1
    if sum(f < g for f, g in pairs) == sum(k * (k - 1) // 2 for k in size.values()):
        return None
    adj: dict[int, set[int]] = {}
    for f, g in pairs:
        adj.setdefault(f, set()).add(g)
        adj.setdefault(g, set()).add(f)
    for f in sorted(adj):
        for g in sorted(adj[f]):
            for h in sorted(adj[g]):
                if h != f and h not in adj[f]:
                    return f, g, h
    return None
