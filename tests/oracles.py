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
from hocat.homotopy import Fork, HomotopyWitness
from hocat.zigzag import FWD, BWD, CANCEL, COMPOSE, OMIT, Zigzag, _apply, _Engine


def parallel_pairs(cat):
    """Yield all (f, g) with f < g sharing dom and cod, one hom-set at a
    time in order of each hom-set's lowest arrow."""
    hom = {}
    for i, m in enumerate(cat.morphisms):
        hom.setdefault((m.dom, m.cod), []).append(i)
    for arrows in hom.values():
        yield from itertools.combinations(arrows, 2)


def composable_pairs(cat):
    """Yield all (g, f) with g∘f defined, g then f ascending."""
    for g, mg in enumerate(cat.morphisms):
        for f, mf in enumerate(cat.morphisms):
            if mf.cod == mg.dom:
                yield g, f


def brute_two_of_three(cat, members):
    """The first (f, g, g∘f) with exactly two members, pairs in
    ``composable_pairs`` order, or None."""
    for g, f in composable_pairs(cat):
        gf = cat.table[g][f]
        if (f in members) + (g in members) + (gf in members) == 2:
            return f, g, gf
    return None


def brute_broken_composite(source, target, on_morphisms):
    """The first (g, f) in ``composable_pairs`` order whose composite
    the arrow map ``on_morphisms`` does not carry to the composite of
    the images in ``target``, or None."""
    for g, f in composable_pairs(source):
        if on_morphisms[source.table[g][f]] != target.table[on_morphisms[g]][on_morphisms[f]]:
            return g, f
    return None


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
    for g, f, h in zip(*raw.composition):
        after, before, equals = names[g], names[f], names[h]
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


def brute_generated(cat, gens):
    """The arrows composed from ``gens`` and the identities: a plain
    fixpoint, composing any two arrows reached so far."""
    reached = set(cat.identity) | set(gens)
    changed = True
    while changed:
        changed = False
        for g, f in itertools.product(list(reached), repeat=2):
            if cat.morphisms[g].dom == cat.morphisms[f].cod and cat.table[g][f] not in reached:
                reached.add(cat.table[g][f])
                changed = True
    return frozenset(reached)


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


def brute_is_congruence(cat, classes):
    """Whether a partition of the arrows into parallel classes is closed
    under composition: g∘f and g′∘f′ in one class whenever g, g′ are
    and f, f′ are, for every composable (g, f) and (g′, f′)."""
    block = {m: i for i, cls in enumerate(classes) for m in cls}
    for g, f in composable_pairs(cat):
        for g2 in classes[block[g]]:
            for f2 in classes[block[f]]:
                if block[cat.table[g][f]] != block[cat.table[g2][f2]]:
                    return False
    return True


def all_congruences(cat):
    """Every congruence on ``cat``, as frozensets of frozenset classes.

    Exponential; callers keep instances at eight morphisms or fewer.
    """
    return [frozenset(map(frozenset, part)) for part in hom_partitions(cat)
            if brute_is_congruence(cat, part)]


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


def brute_ho_cr_table(hocr, class_of):
    """Ho(C, r)'s composition table recomputed from every member.

    For composable arrows f, g of ``hocr.category`` the entry is the
    arrow dom f -> cod g holding the class of b∘a, for every member a
    of f and b of g, or None when those composites fall in more than
    one class.  ``class_of`` maps each target arrow, a parent index, to
    its class.
    """
    cat, hq, members = hocr.chain.cat, hocr.category, hocr.classes
    k = len(hq.morphisms)
    arrow = {(hq.dom(i), hq.cod(i), class_of[members[i][0]]): i for i in range(k)}
    table = [[-1] * k for _ in range(k)]
    for g in range(k):
        for f in range(k):
            if hq.cod(f) == hq.dom(g):
                got = {class_of[cat.table[b][a]] for a in members[f] for b in members[g]}
                table[g][f] = arrow[(hq.dom(f), hq.cod(g), got.pop())] if len(got) == 1 else None
    return table


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
    pairs = list(composable_pairs(a))
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
                            for g, f in pairs):
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
        for nstate, cost, _ in eng.successors(state, budget):
            if cost > budget:
                continue
            seen = visited.get(nstate)
            if seen is None:
                visited[nstate] = f
            else:
                rf, rs = find_root(parent, f), find_root(parent, seen)
                parent[max(rf, rs)] = min(rf, rs)
    return frozenset((f, g) for f, g in parallel_pairs(cat)
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
    return {(f, g) for f, g in parallel_pairs(cat)
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


def brute_fork_witnesses(cat, members, side, cut):
    """A homotopy witness for each related pair f < g before ``cut``
    (every pair when None), keyed and ordered by pair.

    Read off :func:`_brute_forks` in its (vertex, apex, l0, l1, σ)
    order: each pair takes the first fork mediating (f, g) or (g, f),
    with the legs in (f, g) order (unswapped when the fork mediates
    both), that fork's lowest collapse σ and the lowest mediator.
    """
    members = frozenset(members)
    dom, _cod, _hom, after = _sided(cat, side)
    pending = {p for p in brute_one_sided_relation(cat, members, side)
               if cut is None or p < cut}
    found, seen = {}, set()
    for fork in _brute_forks(cat, members, side):
        va, apex, (l0, l1), sigma, base = fork
        if (va, l0, l1) in seen:
            continue  # a higher collapse of a fork already read
        seen.add((va, l0, l1))
        mediated = _mediated(cat, side, fork)
        for f, g in pending & {(min(p), max(p)) for p in mediated}:
            legs = (l0, l1) if (f, g) in mediated else (l1, l0)
            mediator = min(h for h in range(len(cat.morphisms)) if dom(h) == apex
                           and after(h, legs[0]) == f and after(h, legs[1]) == g)
            found[f, g] = HomotopyWitness(side, f, g, Fork(side, va, apex, legs, sigma, base),
                                          mediator)
        pending -= found.keys()
    return {p: found[p] for p in sorted(found)}


def brute_shared_forks(cat, members, side):
    """Every (p1, p2) of ordered pairs that one weq fork on ``side``
    mediates both of."""
    shared = set()
    for fork in _brute_forks(cat, frozenset(members), side):
        mediated = _mediated(cat, side, fork)
        shared |= {(p1, p2) for p1 in mediated for p2 in mediated}
    return shared


def brute_common_fork(cat, members, side):
    """(ok, first two ordered related pairs no single weq fork mediates).

    Pairs range over each hom-set on ``side`` (objects in order, arrows
    ascending, diagonal included); the counterexample is the first
    (p1, p2) with p2 not before p1 in that order.
    """
    members = frozenset(members)
    _dom, _cod, hom, _after = _sided(cat, side)
    rel = brute_one_sided_relation(cat, members, side)
    shared = brute_shared_forks(cat, members, side)
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


# -- chain complexes over F₂ ----------------------------------------------
#
# Plain linear algebra, no hocat code.  A complex in degrees 0..n-1 is
# (dims, diffs): dims[k] is the dimension in degree k, and diffs[k-1] is
# the differential d_k: F₂^dims[k] -> F₂^dims[k-1], a tuple of dims[k-1]
# rows of dims[k] bits, with d_{k-1}·d_k = 0.  A chain map from
# (dims, diffs) to (dims', diffs') is (f_0, ..., f_{n-1}), f_k a
# dims'[k] x dims[k] matrix, with d'_k·f_k = f_{k-1}·d_k.  Over a field
# every complex is fibrant and cofibrant, the quasi-isomorphisms are the
# weak equivalences, and two chain maps are homotopic iff they agree on
# homology.

def f2_vectors(n):
    """Every vector of F₂^n, in a fixed order (the zero vector first)."""
    return list(itertools.product((0, 1), repeat=n))


def f2_matrices(rows, cols):
    """Every rows x cols matrix over F₂."""
    return list(itertools.product(itertools.product((0, 1), repeat=cols), repeat=rows))


def f2_apply(m, v):
    """The matrix ``m`` applied to the vector ``v``."""
    return tuple(sum(a & b for a, b in zip(row, v)) % 2 for row in m)


def _cycles(cx, k):
    """The vectors of degree k that d_k sends to zero (all of degree 0)."""
    dims, diffs = cx
    return [v for v in f2_vectors(dims[k]) if k == 0 or not any(f2_apply(diffs[k - 1], v))]


def _homology_classes(cx, k):
    """H_k of ``cx`` as the function from each cycle of degree k to its
    class, the coset of the boundaries through it."""
    dims, diffs = cx
    boundaries = ({f2_apply(diffs[k], u) for u in f2_vectors(dims[k + 1])}
                  if k + 1 < len(dims) else {(0,) * dims[k]})
    return {v: frozenset(tuple(a ^ b for a, b in zip(v, w)) for w in boundaries)
            for v in _cycles(cx, k)}


def homology_map(src, tgt, fs):
    """What the chain map ``fs``: src -> tgt induces on homology: in each
    degree, the class of the image of each cycle.  Parallel chain maps
    agree on homology iff these are equal."""
    return tuple(tuple(_homology_classes(tgt, k)[f2_apply(f, z)] for z in _cycles(src, k))
                 for k, f in enumerate(fs))


def is_quasi_iso(src, tgt, fs):
    """Does ``fs`` induce a bijection on homology in every degree?"""
    for k, images in enumerate(homology_map(src, tgt, fs)):
        on_classes = dict(zip(_homology_classes(src, k).values(), images))
        targets = set(_homology_classes(tgt, k).values())
        if set(on_classes.values()) != targets or len(on_classes) != len(targets):
            return False
    return True
