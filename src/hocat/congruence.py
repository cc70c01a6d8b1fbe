"""Congruences on finite categories and the quotients they induce.

A precongruence is a bag of unordered relations between parallel arrows,
one relation per hom-set.  A congruence is the certified form: an
equivalence relation on every hom-set that is closed under composition
on both sides, so the quotient category exists.  ``least_congruence``
produces the smallest congruence containing a given precongruence via
union-find plus a worklist that re-fires composition closure until
nothing changes.

A precongruence is stored as blocks, ascending tuples of parallel
arrows it relates pairwise, so a kernel class is one block, not its
quadratically many pairs (f, g), f <= g, which are read off the blocks
on demand; given pairs, degenerate ones included, are two-arrow blocks.
A congruence stores a partition instead, where reflexivity is implicit,
and is the quotient too: it is certified while it builds its quotient
category, since a partition is closed under composition iff composing
with each of the base's generators, on either side, keeps related
arrows related, so it keeps the projection onto the quotient as a
functor without a second check.  Its inverse classes are read off the
quotient once, and ``sigma_of`` reads them for the arrows invertible
up to the congruence.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, repeat
from operator import itemgetter
from typing import Iterable

from .errors import ValidationError
from .fincat import CatFunctor, FinCat, Mor

__all__ = [
    "Precongruence", "Congruence",
    "least_congruence", "quotient",
    "kernel_congruence", "sigma_of",
]


class Precongruence:
    """Unordered parallel-pair relations over a fixed base category,
    kept as :attr:`blocks`: the union of cliques, each an ascending
    tuple of two or more parallel arrows."""

    def __init__(self, base: FinCat, pairs: Iterable[tuple[int, int]] = ()):
        self.base = base
        canon = set()
        for f, g in pairs:
            fi, gi = base.mor(f), base.mor(g)
            mf, mg = base.morphisms[fi], base.morphisms[gi]
            if mf.dom != mg.dom or mf.cod != mg.cod:
                raise ValidationError(f"pair ({mf.name!r}, {mg.name!r}) is not parallel")
            canon.add((fi, gi) if fi < gi else (gi, fi))
        self.blocks = self.pairs = frozenset(canon)

    @classmethod
    def canonical(cls, base: FinCat, blocks: Iterable[tuple[int, ...]]) -> "Precongruence":
        """Trust ``blocks`` as already canonical: ascending tuples of two
        or more parallel arrow indices, such as pairs (f, g) with f <= g.
        For relations built from ``base``'s own tables, which need no
        resolving or endpoint check."""
        rel = cls.__new__(cls)
        rel.base = base
        rel.blocks = frozenset(blocks)
        if max(map(len, rel.blocks), default=2) == 2:  # the blocks are the pairs
            rel.pairs = rel.blocks
        return rel

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """Every pair (f, g), f <= g, that some block relates."""
        return frozenset(chain.from_iterable(map(combinations, self.blocks, repeat(2))))

    @property
    def distinct_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(p for p in self.pairs if p[0] != p[1])

    def union(self, other: "Precongruence") -> "Precongruence":
        if other.base is not self.base and other.base != self.base:
            raise ValidationError("cannot union relations over different categories")
        return Precongruence.canonical(self.base, self.blocks | other.blocks)

    def __eq__(self, other):
        if not isinstance(other, Precongruence):
            return NotImplemented
        return self.base == other.base and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Precongruence({len(self.pairs)} pairs)"


class Congruence:
    """A certified congruence, stored as a partition of each hom-set,
    with its quotient category and the projection onto it.

    The constructor checks that the classes partition hom-sets into
    parallel blocks, then builds :attr:`quotient`, whose classes compose
    through their lowest members, rep, and :attr:`projection`.  The
    projection is a functor iff [g∘f] = [rep(g)∘rep(f)] for every
    composable (g, f), that is iff the relation is closed under
    composition.  As every arrow is a composite of
    :attr:`FinCat.generators` and the table is associative, that holds
    iff each generator k, composed on either side, sends related arrows
    to related arrows: iff [k∘f] = [k∘rep(f)] and [f∘k] = [rep(f)∘k] for
    every f.  A non-discrete partition is certified that way, a discrete
    one needs no check, and the projection is built unchecked.  Only
    when a generator fails are all (g, f) scanned; the first one the
    projection breaks on names a related pair whose composites part:
    (rep(g), g) after f when [g∘f] differs from [rep(g)∘f], else
    (rep(f), f) before rep(g).  Invalid input raises.  Classes are
    numbered by their lowest member, so equal congruences compare equal
    structurally.
    """

    def __init__(self, base: FinCat, classes: Iterable[Iterable[int]]):
        self.base = base
        morphisms = base.morphisms
        n = len(morphisms)
        blocks = [tuple(sorted(base.mor(m) for m in cls)) for cls in classes]
        seen: set[int] = set()
        for cls in blocks:
            if not cls:
                raise ValidationError("empty congruence class")
            d, c = morphisms[cls[0]].dom, morphisms[cls[0]].cod
            for m in cls:
                if m in seen:
                    raise ValidationError(
                        f"morphism {base.mor_name(m)!r} appears in two classes")
                seen.add(m)
                if morphisms[m].dom != d or morphisms[m].cod != c:
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
        self.class_of = class_of = tuple(class_of)

        table = base.table
        reps = [cls[0] for cls in self.classes]
        objects = range(len(base.objects))
        qmorphisms = tuple(Mor(f"[{base.mor_name(r)}]", base.dom(r), base.cod(r)) for r in reps)
        identity = tuple(class_of[base.identity[x]] for x in objects)
        # Each representative's row read at every representative; a
        # non-composable -1 reads the appended -1.  A discrete partition's
        # class map is the identity, so its table is the base table; a
        # lone class is the one arrow of a one-object quotient.
        ext, gather = class_of + (-1,), itemgetter(*reps)
        discrete = len(reps) == n
        qtable = (table if discrete
                  else [itemgetter(*gather(table[g]))(ext) for g in reps] if reps[1:] else [[0]])
        self.quotient = FinCat(base.objects, qmorphisms, identity, qtable)
        if not (discrete or self._stable(base, class_of, ext, reps)):
            g, f = next((g, f) for g in range(n) for f in base.incoming[base.dom(g)]
                        if class_of[table[g][f]] != qtable[class_of[g]][class_of[f]])
            rg, rf = reps[class_of[g]], reps[class_of[f]]
            if class_of[table[g][f]] != class_of[table[rg][f]]:
                pair, u, v = (rg, g), f, base.identity[base.cod(g)]
            else:
                pair, u, v = (rf, f), base.identity[base.dom(f)], rg
            name = base.mor_name
            raise ValidationError(
                "relation is not closed under composition: "
                f"({name(pair[0])!r}, {name(pair[1])!r}) composed with "
                f"u={name(u)!r}, v={name(v)!r}")
        self.projection = CatFunctor.certified(base, self.quotient, tuple(objects), class_of)

    @staticmethod
    def _stable(base: FinCat, class_of, ext, reps) -> bool:
        """Whether composing with each generator, on either side, keeps
        related arrows related.  A generator's row (its column) read
        through the class map gives the class of each composite, or -1;
        read again at each arrow's representative, it must not change.
        Two parallel arrows are composable with the same arrows."""
        table = base.table
        rep_of = itemgetter(*map(reps.__getitem__, class_of))
        for k in base.generators:
            after = itemgetter(*table[k])(ext)
            before = itemgetter(*map(itemgetter(k), table))(ext)
            if rep_of(after) != after or rep_of(before) != before:
                return False
        return True

    @cached_property
    def inverses(self) -> tuple[int | None, ...]:
        """Each class's lowest-index two-sided inverse class in
        :attr:`quotient`, or None: read once, for every reader of
        invertibility up to the congruence."""
        return tuple(map(self.quotient.inverse, range(len(self.classes))))

    def related(self, f, g) -> bool:
        return self.class_of[self.base.mor(f)] == self.class_of[self.base.mor(g)]

    def nonsingleton_classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(cls for cls in self.classes if len(cls) > 1)

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
    re-fires one-sided composition with :attr:`FinCat.generators`, which
    compose to every arrow, and transitivity inside the union-find
    carries the two-sided consequences to a fixpoint.  Each block seeds
    its lowest arrow paired with each other one, and a merge of f and g
    is pushed only through the generators into dom f or out of cod f.
    """
    base = rel.base
    n = len(base.morphisms)
    table, morphisms = base.table, base.morphisms
    into: list[list[int]] = [[] for _ in base.objects]   # generators by codomain
    rows: list[list[tuple]] = [[] for _ in base.objects]  # generator rows by domain
    for k in base.generators:
        into[morphisms[k].cod].append(k)
        rows[morphisms[k].dom].append(table[k])
    parent = list(range(n))
    work = [(b[0], x) for b in rel.blocks for x in b[1:]]
    while work:
        f, g = work.pop()
        if parent[f] == parent[g]:  # already one tree, as most pairs are
            continue
        rf, rg = find_root(parent, f), find_root(parent, g)
        if rf == rg:
            continue
        if rf > rg:
            rf, rg = rg, rf
        parent[rg] = rf
        work.extend(zip(map(table[f].__getitem__, into[morphisms[f].dom]),
                        map(table[g].__getitem__, into[morphisms[f].dom])))
        work.extend((row[f], row[g]) for row in rows[morphisms[f].cod])

    groups: dict[int, list[int]] = {}
    for m in range(n):
        groups.setdefault(find_root(parent, m), []).append(m)
    return Congruence(base, groups.values())


def quotient(cat: FinCat, congruence: Congruence) -> Congruence:
    """Quotient ``cat`` by a certified congruence: the congruence
    itself, whose :attr:`Congruence.quotient` and
    :attr:`Congruence.projection` were built with it.  Composition of
    classes is independent of representatives exactly because the
    congruence is closed, and the projection is what certified that.
    """
    if congruence.base is not cat and congruence.base != cat:
        raise ValidationError("congruence was built over a different category")
    return congruence


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
    inverses = cong.inverses
    return frozenset(f for f, c in enumerate(cong.class_of) if inverses[c] is not None)


def intransitive_triple(blocks) -> tuple[int, int, int] | None:
    """First (f, g, h) in index order with f~g and g~h but not f~h.

    ``blocks`` are ascending tuples of distinct arrows a reflexive,
    symmetric relation relates pairwise, such as its distinct pairs;
    None means the relation is transitive.

    The relation is transitive iff each class of its union-find closure
    over the blocks is a clique: iff each arrow is related to all k
    arrows of its class, itself included.  A class that one block spans
    is one.  Otherwise the first triple starts at the least f related
    to fewer; g is the least arrow related to f and to some h that f is
    not, and h the least such.
    """
    parent: dict[int, int] = {}
    for block in blocks:
        root = find_root(parent, parent.setdefault(block[0], block[0]))
        for x in block[1:]:
            rx = find_root(parent, parent.setdefault(x, x))
            if rx != root:
                parent[rx] = root
    size: dict[int, int] = {}
    for x in parent:
        root = find_root(parent, x)
        size[root] = size.get(root, 0) + 1
    spanned = {root for block in blocks
               if len(block) == size[root := find_root(parent, block[0])]}
    held: dict[int, list] = {}  # arrow -> the blocks holding it, in unspanned classes
    for block in blocks:
        if find_root(parent, block[0]) not in spanned:
            for x in block:
                held.setdefault(x, []).append(block)
    near: dict[int, set[int]] = {}

    def related_to(x: int) -> set[int]:
        if x not in near:
            near[x] = set().union(*held[x])
        return near[x]

    for f in sorted(held):
        if len(related_to(f)) < size[find_root(parent, f)]:
            g = next(g for g in sorted(near[f]) if not related_to(g) <= near[f])
            return f, g, min(near[g] - near[f])
    return None
