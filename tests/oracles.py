"""Brute-force reference implementations the real modules are tested against.

Everything here favors obviousness over speed: plain fixpoint loops,
full partition enumeration, raw move search.  Nothing imports the
closure or search code under test beyond basic category plumbing,
except ``single_arrow_relation``, which takes the search engine's
rewrites once from every one-arrow zigzag.
"""

import itertools

from hocat.congruence import find_root
from hocat.errors import MoveError
from hocat.fincat import resolve_weqs
from hocat.zigzag import FWD, BWD, CANCEL, COMPOSE, OMIT, Zigzag, _apply, _Engine


def brute_law_violation(raw):
    """The first law a parsed document breaks, or None.

    Reads the document the way ``validate_category`` does: identity laws
    first, then each entry in order, then every composable pair (g, f),
    then every composable triple (h, g, f), each by plain nested loops
    in index order.  Returns ``(kind, names)`` with kind one of
    "not composable", "endpoint mismatch", "contradicts", "missing" or
    "associativity" and the arrow names the error message carries.
    """
    names = [name for name, _d, _c in raw.morphisms]
    index = {name: i for i, name in enumerate(names)}
    dom = [d for _n, d, _c in raw.morphisms]
    cod = [c for _n, _d, c in raw.morphisms]
    comp = {}
    for i in range(len(names)):
        comp[i, index["id:" + dom[i]]] = i
        comp[index["id:" + cod[i]], i] = i
    for after, before, equals in raw.composition:
        g, f, h = index[after], index[before], index[equals]
        if dom[g] != cod[f]:
            return "not composable", (after, before)
        if (dom[h], cod[h]) != (dom[f], cod[g]):
            return "endpoint mismatch", (after, before, equals)
        if comp.get((g, f), h) != h:
            return "contradicts", (after, before, equals, names[comp[g, f]])
        comp[g, f] = h
    n = len(names)
    for g, f in itertools.product(range(n), repeat=2):
        if dom[g] == cod[f] and (g, f) not in comp:
            return "missing", (names[g], names[f])
    for h, g, f in itertools.product(range(n), repeat=3):
        if dom[h] == cod[g] and dom[g] == cod[f] \
                and comp[h, comp[g, f]] != comp[comp[h, g], f]:
            return "associativity", (names[h], names[g], names[f])
    return None


def brute_close_composition(cat, pairs):
    """Smallest superset of ``pairs`` stable under one-sided composition."""
    out = set()
    for f, g in pairs:
        if f != g:
            out.add((min(f, g), max(f, g)))
    changed = True
    while changed:
        changed = False
        for f, g in list(out):
            for h in cat.outgoing[cat.cod(f)]:
                hf, hg = cat.table[h][f], cat.table[h][g]
                if hf != hg and (min(hf, hg), max(hf, hg)) not in out:
                    out.add((min(hf, hg), max(hf, hg)))
                    changed = True
            for h in cat.incoming[cat.dom(f)]:
                fh, gh = cat.table[f][h], cat.table[g][h]
                if fh != gh and (min(fh, gh), max(fh, gh)) not in out:
                    out.add((min(fh, gh), max(fh, gh)))
                    changed = True
    return frozenset(out)


def brute_least_congruence(cat, pairs):
    """Equivalence classes of the least congruence containing ``pairs``.

    Returned as a tuple mapping morphism index to class representative
    (smallest member).  Fixpoint over symmetry, transitivity and
    composition; no union-find.
    """
    nm = len(cat.morphisms)
    rel = {(m, m) for m in range(nm)}
    rel.update((min(f, g), max(f, g)) for f, g in pairs)
    rel.update((g, f) for f, g in list(rel))
    changed = True
    while changed:
        changed = False
        for f, g in list(rel):
            for h in cat.outgoing[cat.cod(f)]:
                p = (cat.table[h][f], cat.table[h][g])
                if p not in rel:
                    rel.add(p)
                    changed = True
            for h in cat.incoming[cat.dom(f)]:
                p = (cat.table[f][h], cat.table[g][h])
                if p not in rel:
                    rel.add(p)
                    changed = True
            for a, b in list(rel):
                if a == g and (f, b) not in rel:
                    rel.add((f, b))
                    changed = True
    rep = []
    for m in range(nm):
        rep.append(min(b for a, b in rel if a == m))
    return tuple(rep)


def _partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1:]
        yield part + [[head]]


def hom_partitions(cat):
    """Every partition of the arrows into blocks of parallel arrows."""
    nm = len(cat.morphisms)
    sig = [(cat.dom(m), cat.cod(m)) for m in range(nm)]
    for part in _partitions(list(range(nm))):
        if not any(sig[a] != sig[b] for block in part for a in block for b in block):
            yield part


def all_congruences(cat):
    """Every congruence on ``cat``, as frozensets of frozenset classes.

    Exponential; callers keep instances at eight morphisms or fewer.
    """
    out = []
    for part in hom_partitions(cat):
        rep = {}
        for i, block in enumerate(part):
            for m in block:
                rep[m] = i
        ok = True
        for block in part:
            for a in block:
                for b in block:
                    for h in cat.outgoing[cat.cod(a)]:
                        if rep[cat.table[h][a]] != rep[cat.table[h][b]]:
                            ok = False
                    for h in cat.incoming[cat.dom(a)]:
                        if rep[cat.table[a][h]] != rep[cat.table[b][h]]:
                            ok = False
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.append(frozenset(frozenset(block) for block in part))
    return out


def brute_intransitive_triple(pairs):
    """First (f, g, h) in index order with f~g, g~h, f != h and not f~h,
    or None; ``pairs`` are distinct unordered pairs of a symmetric
    relation.  Plain nested loops over every arrow the pairs mention."""
    related = set()
    for f, g in pairs:
        related.add((f, g))
        related.add((g, f))
    arrows = sorted({m for p in pairs for m in p})
    for f in arrows:
        for g in arrows:
            for h in arrows:
                if f != h and (f, g) in related and (g, h) in related \
                        and (f, h) not in related:
                    return f, g, h
    return None


def brute_sigma(cat, class_of):
    """Morphisms invertible up to the congruence ``class_of`` encodes."""
    out = set()
    for f in range(len(cat.morphisms)):
        x, y = cat.dom(f), cat.cod(f)
        for g in cat.hom(y, x):
            if (class_of[cat.table[g][f]] == class_of[cat.identity[x]]
                    and class_of[cat.table[f][g]] == class_of[cat.identity[y]]):
                out.add(f)
                break
    return frozenset(out)


def brute_isomorphism(a, b):
    """An isomorphism of categories a -> b as (object map, morphism map)
    of index tuples, or None.

    Tries every object bijection, then every choice of one bijection
    per hom-set, and checks identities and every composable pair.
    Exponential; callers keep to a handful of arrows.
    """
    nobj = len(a.objects)
    if nobj != len(b.objects) or len(a.morphisms) != len(b.morphisms):
        return None
    homs = [(x, y) for x in range(nobj) for y in range(nobj)]
    for obj in itertools.permutations(range(nobj)):
        sources = [a.hom(x, y) for x, y in homs]
        targets = [b.hom(obj[x], obj[y]) for x, y in homs]
        if any(len(s) != len(t) for s, t in zip(sources, targets)):
            continue
        for images in itertools.product(*map(itertools.permutations, targets)):
            mor = [0] * len(a.morphisms)
            for src, img in zip(sources, images):
                for f, g in zip(src, img):
                    mor[f] = g
            if all(mor[a.identity[x]] == b.identity[obj[x]] for x in range(nobj)) \
                    and all(mor[a.table[g][f]] == b.table[mor[g]][mor[f]]
                            for g, f in a.composable_pairs()):
                return obj, tuple(mor)
    return None


def _candidate_moves(cat, members, z):
    """Every raw move candidate at ``z``; legality left to apply_move."""
    n = len(z.steps)
    nm = len(cat.morphisms)
    for i in range(n):
        yield (CANCEL, "apply", i, None)
        yield (COMPOSE, "apply", i, None)
        yield (OMIT, "apply", i, None)
        m = z.steps[i][0]
        for a in range(nm):
            for b in range(nm):
                # direction decides which slot composes first; cover both
                if cat.table[b][a] == m or cat.table[a][b] == m:
                    yield (COMPOSE, "unapply", i, (a, b))
    for i in range(n + 1):
        for w in members:
            yield (CANCEL, "unapply", i, (w, FWD))
            yield (CANCEL, "unapply", i, (w, BWD))
        for x in range(len(cat.objects)):
            yield (OMIT, "unapply", i, (cat.identity[x], FWD))
            yield (OMIT, "unapply", i, (cat.identity[x], BWD))


def raw_reachable(cat, members, z, depth):
    """All zigzags within ``depth`` raw moves of ``z``, by plain BFS.

    Each candidate goes through ``apply_move``'s checks against the
    family resolved once here."""
    resolved = resolve_weqs(cat, members)
    seen = {z}
    frontier = [z]
    for _ in range(depth):
        nxt = []
        for cur in frontier:
            for kind, direction, pos, payload in _candidate_moves(cat, members, cur):
                try:
                    out = _apply(cat, resolved, cur, kind, pos, direction, payload)
                except MoveError:
                    continue
                if out not in seen:
                    seen.add(out)
                    nxt.append(out)
        frontier = nxt
        if not frontier:
            break
    return seen


def single_arrow_relation(cat, weqs, budget):
    """Parallel pairs whose one-arrow zigzags meet within ``budget``.

    Seeds every one-arrow zigzag at once, applies each of the search
    engine's rewrites a single time, and unions seeds whose rewrites
    land on the same word; longer derivations compose through
    intermediate seeds, which only ever adds true equivalences.  One
    application per seed suffices: a pair equalized by a member after
    bracketing meets in one rewrite from each side (boundary insertion
    when a bracket is trivial, interior insertion otherwise), and every
    morphism in a derivation chain is itself a seed.
    """
    eng = _Engine(cat, resolve_weqs(cat, weqs))
    parent = list(range(len(cat.morphisms)))
    # Seed words stay unreduced so interior rewrites can still split
    # an identity arrow across a section/retraction bracketing.
    visited = {(cat.dom(f), (f * 2,)): f for f in range(len(cat.morphisms))}
    for state, f in list(visited.items()):
        for nstate, cost, _ in eng.successors(state):
            if cost > budget:
                continue
            seen = visited.get(nstate)
            if seen is None:
                visited[nstate] = f
            else:
                rf, rs = find_root(parent, f), find_root(parent, seen)
                parent[max(rf, rs)] = min(rf, rs)
    return frozenset((f, g) for f, g in cat.parallel_pairs()
                     if find_root(parent, f) == find_root(parent, g))


def _sided(cat, side):
    """dom, cod, hom and ``after(x, y)`` read on one side.

    The right side is the left side of the opposite category, so there
    ``after(x, y)`` is y∘x in ``cat``.  Non-composable pairs give -1.
    """
    if side == "left":
        return cat.dom, cat.cod, cat.hom, lambda x, y: cat.table[x][y]
    return (cat.cod, cat.dom, lambda a, b: cat.hom(b, a),
            lambda x, y: cat.table[y][x])


def brute_left_relation(cat, members, side):
    """Unclosed one-sided relation: distinct parallel pairs (f < g)
    equalized by a member on ``side`` (the right relation is the left
    relation of the opposite category)."""
    dom, cod, _hom, after = _sided(cat, side)
    return {(f, g) for f, g in cat.parallel_pairs()
            if any(dom(w) == cod(f) and after(w, f) == after(w, g) for w in members)}


def brute_one_sided_relation(cat, members, side):
    """Closed one-sided relation: :func:`brute_left_relation` closed under
    composition on both sides; distinct pairs (f < g)."""
    return brute_close_composition(cat, brute_left_relation(cat, members, side))


def _brute_forks(cat, members, side):
    """Every fork of weak equivalences on ``side``, one entry per member
    collapse: (vertex, apex, legs, collapse, base)."""
    dom, _cod, hom, after = _sided(cat, side)
    nobj = len(cat.objects)
    out = []
    for va in range(nobj):
        for apex in range(nobj):
            for l0 in hom(va, apex):
                for l1 in hom(va, apex):
                    for sigma in sorted(members):
                        if dom(sigma) != apex:
                            continue
                        base = after(sigma, l0)
                        if base == after(sigma, l1) and base in members:
                            out.append((va, apex, (l0, l1), sigma, base))
    return out


def _mediated(cat, side, fork):
    """Ordered pairs (h after leg0, h after leg1) over every mediator h."""
    dom, _cod, _hom, after = _sided(cat, side)
    _va, apex, (l0, l1), _sigma, _base = fork
    return {(after(h, l0), after(h, l1))
            for h in range(len(cat.morphisms)) if dom(h) == apex}


def brute_fork_condition(cat, members, side):
    """(ok, first related pair f < g that no weq fork and mediator realize).

    Every ordered leg pair is enumerated, so (f, g) is realized exactly
    when (g, f) is.
    """
    members = frozenset(members)
    realized = set()
    for fork in _brute_forks(cat, members, side):
        realized |= _mediated(cat, side, fork)
    missing = sorted(p for p in brute_one_sided_relation(cat, members, side)
                     if p not in realized)
    return (not missing, missing[0] if missing else None)


def brute_common_fork(cat, members, side):
    """(ok, first two ordered related pairs no single weq fork mediates).

    Pairs range over each hom-set on ``side`` (objects in order, arrows
    ascending, diagonal included); the counterexample is the first
    (p1, p2) with p2 not before p1 in that order.
    """
    members = frozenset(members)
    _dom, _cod, hom, _after = _sided(cat, side)
    rel = brute_one_sided_relation(cat, members, side)
    shared = set()
    for fork in _brute_forks(cat, members, side):
        mediated = _mediated(cat, side, fork)
        shared |= {(p1, p2) for p1 in mediated for p2 in mediated}
    nobj = len(cat.objects)
    for va in range(nobj):
        for vb in range(nobj):
            arrows = hom(va, vb)
            pairs = [(f, g) for f in arrows for g in arrows
                     if f == g or (min(f, g), max(f, g)) in rel]
            for i, p1 in enumerate(pairs):
                for p2 in pairs[i:]:
                    if (p1, p2) not in shared:
                        return False, (p1, p2)
    return True, None


def replays_homotopy(cat, members, side, witness):
    """Does ``witness`` satisfy the fork and mediator equations on ``side``?"""
    dom, cod, _hom, after = _sided(cat, side)
    fork = witness.fork
    l0, l1 = fork.legs
    return (witness.side == fork.side == side
            and dom(l0) == dom(l1) == fork.vertex
            and cod(l0) == cod(l1) == fork.apex == dom(fork.collapse)
            and fork.collapse in members and fork.base in members
            and after(fork.collapse, l0) == after(fork.collapse, l1) == fork.base
            and after(witness.mediator, l0) == witness.f
            and after(witness.mediator, l1) == witness.g)
