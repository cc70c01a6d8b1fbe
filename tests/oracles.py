"""Brute-force reference implementations the real modules are tested against.

Everything here favors obviousness over speed: plain fixpoint loops,
full partition enumeration, raw move search.  Nothing imports the
closure or search code under test beyond basic category plumbing.
"""

from hocat.errors import MoveError
from hocat.zigzag import FWD, BWD, CANCEL, COMPOSE, OMIT, Zigzag, apply_move


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
    """All zigzags within ``depth`` raw moves of ``z``, by plain BFS."""
    seen = {z}
    frontier = [z]
    for _ in range(depth):
        nxt = []
        for cur in frontier:
            for kind, direction, pos, payload in _candidate_moves(cat, members, cur):
                try:
                    out = apply_move(cat, members, cur, kind, pos, direction, payload)
                except MoveError:
                    continue
                if out not in seen:
                    seen.add(out)
                    nxt.append(out)
        frontier = nxt
        if not frontier:
            break
    return seen


def _sided(cat, side):
    """dom, cod, hom and ``after(x, y)`` read on one side.

    The right side is the left side of the opposite category, so there
    ``after(x, y)`` is y∘x in ``cat``.  Non-composable pairs give -1.
    """
    if side == "left":
        return cat.dom, cat.cod, cat.hom, lambda x, y: cat.table[x][y]
    return (cat.cod, cat.dom, lambda a, b: cat.hom(b, a),
            lambda x, y: cat.table[y][x])


def brute_one_sided_relation(cat, members, side):
    """Closed one-sided relation: pairs equalized by a member on ``side``,
    closed under composition on both sides; distinct pairs (f < g)."""
    dom, cod, _hom, after = _sided(cat, side)
    base = set()
    for f, g in cat.parallel_pairs():
        for w in members:
            if dom(w) == cod(f) and after(w, f) == after(w, g):
                base.add((f, g))
    return brute_close_composition(cat, base)


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
