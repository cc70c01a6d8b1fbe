"""Seeded generator of small concrete categories for the test corpora.

Categories are made of genuine functions between small finite sets and
closed under composition, so associativity and the identity laws hold
by construction.  The generator emits interchange documents (exercising
the loader on every instance) plus weak equivalence families in a few
styles, closed under two out of three directly here, independent of the
package's own closure code.
"""

import itertools

from hocat.fincat import load_spec, resolve_weqs, validate_category
from hocat.weq import check_split_generated, check_weq_axioms

from oracles import (composable_pairs, f2_apply, f2_matrices, f2_vectors, is_quasi_iso,
                     parallel_pairs)


def _close_functions(sizes, seeds, cap):
    """Compose seed functions to a closed arrow set, or None past cap.

    An arrow is (dom, cod, graph) with graph a tuple over the carrier
    range(sizes[dom]).
    """
    arrows = {(i, i, tuple(range(sizes[i]))) for i in range(len(sizes))}
    arrows.update(seeds)
    work = list(arrows)
    while work:
        if len(arrows) > cap:
            return None
        f = work.pop()
        for g in list(arrows):
            for a, b in ((f, g), (g, f)):
                if a[1] == b[0]:
                    comp = (a[0], b[1], tuple(b[2][v] for v in a[2]))
                    if comp not in arrows:
                        arrows.add(comp)
                        work.append(comp)
    return arrows


def gen_document(rng, max_morphisms=12, max_objects=3, max_size=3):
    """One random closed function category as an interchange document."""
    while True:
        n_obj = rng.randint(1, max_objects)
        sizes = [rng.randint(1, max_size) for _ in range(n_obj)]
        n_seed = rng.randint(1, 3)
        seeds = set()
        # Often plant a section/retraction pair between unequal carriers;
        # those are the arrows that make the homotopy relation nontrivial.
        small = [i for i in range(n_obj) for j in range(n_obj)
                 if sizes[i] < sizes[j]]
        if small and rng.random() < 0.6:
            d = rng.choice(small)
            c = rng.choice([j for j in range(n_obj) if sizes[j] > sizes[d]])
            into = rng.sample(range(sizes[c]), sizes[d])
            back = [rng.randrange(sizes[d]) for _ in range(sizes[c])]
            for pos, v in enumerate(into):
                back[v] = pos
            seeds.add((d, c, tuple(into)))
            seeds.add((c, d, tuple(back)))
        for _ in range(n_seed):
            d = rng.randrange(n_obj)
            c = rng.randrange(n_obj)
            graph = tuple(rng.randrange(sizes[c]) for _ in range(sizes[d]))
            seeds.add((d, c, graph))
        arrows = _close_functions(sizes, seeds, max_morphisms)
        if arrows is None:
            continue
        onames = [f"o{i}" for i in range(n_obj)]
        plain = sorted(a for a in arrows
                       if a[2] != tuple(range(sizes[a[0]])) or a[0] != a[1])
        mnames = {a: f"m{i}" for i, a in enumerate(plain)}

        def name(a):
            return mnames.get(a, f"id:{onames[a[0]]}")

        composition = []
        for f in plain:
            for g in plain:
                if f[1] == g[0]:
                    comp = (f[0], g[1], tuple(g[2][v] for v in f[2]))
                    composition.append(
                        {"after": name(g), "before": name(f), "equals": name(comp)})
        return {
            "objects": onames,
            "morphisms": [{"name": mnames[a], "dom": onames[a[0]], "cod": onames[a[1]]}
                          for a in plain],
            "composition": composition,
            "weak_equivalences": [],
        }


def _instance(sizes, plain, name, chosen):
    """(cat, members, doc) for the category of the functions ``plain``
    (every arrow but the identities, closed under composition) between
    carriers of the given sizes, named by ``name``, with ``chosen`` the
    members."""
    onames = [f"o{i}" for i in range(len(sizes))]
    name = dict(name)
    name.update(((i, i, tuple(range(n))), f"id:{onames[i]}") for i, n in enumerate(sizes))
    composition = [{"after": name[g], "before": name[f],
                    "equals": name[(f[0], g[1], tuple(g[2][v] for v in f[2]))]}
                   for f in plain for g in plain if f[1] == g[0]]
    doc = {
        "objects": onames,
        "morphisms": [{"name": name[a], "dom": onames[a[0]], "cod": onames[a[1]]}
                      for a in plain],
        "composition": composition,
        "weak_equivalences": [name[a] for a in chosen],
    }
    cat = validate_category(load_spec(doc))
    return cat, resolve_weqs(cat, doc["weak_equivalences"]), doc


def all_functions_instance(sizes, weqs):
    """Every function between carriers of the given sizes, in a fixed
    order, with ``weqs`` "all" (every arrow) or "bijections".

    Returns (cat, members, doc) like the corpus generators.
    """
    ids = {(i, i, tuple(range(n))) for i, n in enumerate(sizes)}
    plain = [(d, c, graph)
             for d, nd in enumerate(sizes) for c, nc in enumerate(sizes)
             for graph in itertools.product(range(nc), repeat=nd)
             if (d, c, graph) not in ids]
    if weqs == "all":
        chosen = plain
    elif weqs == "bijections":
        chosen = [a for a in plain
                  if sizes[a[0]] == sizes[a[1]] and len(set(a[2])) == len(a[2])]
    else:
        raise ValueError(weqs)
    return _instance(sizes, plain, {a: f"m{k}" for k, a in enumerate(plain)}, chosen)


def function_instance(sizes, seeds, weqs):
    """The functions that ``seeds``, a dict from names to arrows
    (dom, cod, graph), generate between carriers of the given sizes,
    with the seeds named in ``weqs`` as the members.  Other composites
    are named m0, m1, ... in arrow order.

    Returns (cat, members, doc) like the corpus generators.
    """
    ids = {(i, i, tuple(range(n))) for i, n in enumerate(sizes)}
    plain = sorted(_close_functions(sizes, seeds.values(), float("inf")) - ids)
    name = {a: f"m{k}" for k, a in enumerate(plain)}
    name.update((a, n) for n, a in seeds.items())
    return _instance(sizes, plain, name, [seeds[n] for n in weqs])


def chain_complex_instance(max_dim=1, degrees=2):
    """Bounded chain complexes of F₂-vector spaces in degrees
    0..``degrees``-1, of dimensions at most ``max_dim``, one per
    (dimensions, ranks) class, with every chain map between them and the
    quasi-isomorphisms as the members.

    The differential d_k of rank r_k sends basis vector j < r_k to basis
    vector j + r_{k-1}, past the columns d_{k-1} does not kill, so
    consecutive differentials compose to zero.  A chain map is taken as
    the function it is on the disjoint union of its source's degrees,
    so composites are composites of functions.  Returns (cat, members,
    doc, maps), ``maps[k]`` being arrow k as (source, target, matrices)
    in the form the homology oracle reads.
    """
    complexes = []
    for dims in itertools.product(range(max_dim + 1), repeat=degrees):
        for ranks in itertools.product(*(range(min(dims[k - 1], dims[k]) + 1)
                                         for k in range(1, degrees))):
            ranks = (0,) + ranks
            if all(ranks[k - 1] + ranks[k] <= dims[k - 1] for k in range(1, degrees)):
                complexes.append((dims, tuple(
                    tuple(tuple(int(j < ranks[k] and i == j + ranks[k - 1])
                                for j in range(dims[k])) for i in range(dims[k - 1]))
                    for k in range(1, degrees))))
    maps = {}
    for s, (ns, ds) in enumerate(complexes):
        vs = [f2_vectors(n) for n in ns]
        for t, (ms, es) in enumerate(complexes):
            wt = [f2_vectors(m) for m in ms]
            offsets = list(itertools.accumulate((len(w) for w in wt), initial=0))
            for fs in itertools.product(*map(f2_matrices, ms, ns)):
                if all(f2_apply(es[k - 1], f2_apply(fs[k], u))
                       == f2_apply(fs[k - 1], f2_apply(ds[k - 1], u))
                       for k in range(1, degrees) for u in vs[k]):
                    graph = tuple(offsets[k] + wt[k].index(f2_apply(f, v))
                                  for k, f in enumerate(fs) for v in vs[k])
                    maps[s, t, graph] = (complexes[s], complexes[t], fs)
    sizes = [sum(2 ** n for n in dims) for dims, _ds in complexes]
    ids = {(i, i, tuple(range(n))) for i, n in enumerate(sizes)}
    plain = [a for a in maps if a not in ids]
    name = {a: f"m{k}" for k, a in enumerate(plain)}
    cat, members, doc = _instance(sizes, plain, name, [a for a in plain if is_quasi_iso(*maps[a])])
    by_index = [None] * len(cat.morphisms)
    for a, chain_map in maps.items():
        by_index[cat.identity[a[0]] if a in ids else cat.mor(name[a])] = chain_map
    return cat, members, doc, by_index


def _two_of_three_close(cat, members):
    members = set(members) | set(cat.identity_set)
    changed = True
    while changed:
        changed = False
        for g, f in composable_pairs(cat):
            gf = cat.table[g][f]
            flags = (f in members, g in members, gf in members)
            if sum(flags) == 2:
                members.update((f, g, gf))
                changed = True
    return frozenset(members)


def _direct_splits(cat):
    out = set()
    for s in range(len(cat.morphisms)):
        for r in cat.hom(cat.cod(s), cat.dom(s)):
            if cat.table[r][s] == cat.identity[cat.dom(s)]:
                out.add(s)
                out.add(r)
    return sorted(out)


def _isos(cat):
    out = set()
    for f in range(len(cat.morphisms)):
        x, y = cat.dom(f), cat.cod(f)
        for g in cat.hom(y, x):
            if (cat.table[g][f] == cat.identity[x]
                    and cat.table[f][g] == cat.identity[y]):
                out.add(f)
                break
    return sorted(out)


def sample_weqs(rng, cat, style):
    """A two-of-three-closed family in the requested style, else None."""
    if style == "identities":
        return frozenset(cat.identity_set)
    if style == "isos":
        return _two_of_three_close(cat, _isos(cat))
    if style == "split":
        pool = _direct_splits(cat)
        if not pool:
            return None
        chosen = [m for m in pool if rng.random() < 0.7]
        return _two_of_three_close(cat, chosen)
    if style == "random":
        n = len(cat.morphisms)
        chosen = [m for m in range(n) if rng.random() < 0.3]
        return _two_of_three_close(cat, chosen)
    raise ValueError(style)


def gen_category(rng, max_morphisms=12):
    doc = gen_document(rng, max_morphisms=max_morphisms)
    return validate_category(load_spec(doc)), doc


def gen_split_instance(rng, max_morphisms=12, max_tries=50):
    """A category with an axioms-passing, split-generated family."""
    for _ in range(max_tries):
        cat, doc = gen_category(rng, max_morphisms)
        style = rng.choice(("split", "split", "split", "isos"))
        members = sample_weqs(rng, cat, style)
        if members is None:
            continue
        family = check_weq_axioms(cat, members)
        if not family.report.axioms_ok:
            continue
        if not check_split_generated(family).generated:
            continue
        return cat, members, doc
    raise RuntimeError("generator failed to produce a split-generated instance")


def sample_precongruence(rng, cat, max_pairs=4):
    """A few random distinct parallel pairs, possibly none."""
    pool = list(parallel_pairs(cat))
    rng.shuffle(pool)
    return pool[:rng.randint(0, min(max_pairs, len(pool)))]


def gen_any_instance(rng, max_morphisms=12, max_tries=50):
    """A category with any axioms-passing family (split or not)."""
    for _ in range(max_tries):
        cat, doc = gen_category(rng, max_morphisms)
        members = sample_weqs(rng, cat, rng.choice(("identities", "isos", "split", "random")))
        if members is None:
            continue
        family = check_weq_axioms(cat, members)
        if family.report.axioms_ok:
            return cat, members, doc
    raise RuntimeError("generator failed to produce a valid instance")


def monoid_tables(order):
    """Every monoid of the given order up to isomorphism, each as its
    least multiplication table (a tuple of rows over range(order), 0
    the unit) among the relabellings that fix the unit, ascending.

    The products of non-units are filled in row by row, and a partial
    table is dropped as soon as a fully defined triple is not
    associative."""
    units = tuple(range(order))
    rows = [[x if a == 0 else (a if x == 0 else None) for x in units] for a in units]
    cells = [(a, b) for a in units[1:] for b in units[1:]]
    tables = set()

    def associative():
        for x, y, z in itertools.product(units, repeat=3):
            xy, yz = rows[x][y], rows[y][z]
            if None not in (xy, yz) and None not in (rows[xy][z], rows[x][yz]) \
                    and rows[xy][z] != rows[x][yz]:
                return False
        return True

    def relabelled(label):
        # element a becomes label[a]; ``named[k]`` is the element labelled k
        named = sorted(units, key=label.__getitem__)
        return tuple(tuple(label[rows[a][b]] for b in named) for a in named)

    def fill(k):
        if k == len(cells):
            tables.add(min(relabelled((0,) + rest)
                           for rest in itertools.permutations(units[1:])))
            return
        a, b = cells[k]
        for v in units:
            rows[a][b] = v
            if associative():
                fill(k + 1)
        rows[a][b] = None

    fill(0)
    return sorted(tables)


def monoid_corpus(max_order=4):
    """(cat, members, doc) for every monoid of order at most
    ``max_order`` up to isomorphism, as a category on one object whose
    arrows are the elements (``id:o`` the unit, ``m<k>`` element k and
    a∘b the product ab), once with each family that passes the axioms.
    """
    out = []
    for order in range(1, max_order + 1):
        for table in monoid_tables(order):
            name = ["id:o"] + [f"m{k}" for k in range(1, order)]
            doc = {
                "objects": ["o"],
                "morphisms": [{"name": n, "dom": "o", "cod": "o"} for n in name[1:]],
                "composition": [{"after": name[a], "before": name[b], "equals": name[table[a][b]]}
                                for a in range(1, order) for b in range(1, order)],
                "weak_equivalences": [],
            }
            cat = validate_category(load_spec(doc))
            for k in range(order):
                for chosen in itertools.combinations(name[1:], k):
                    if check_weq_axioms(cat, chosen).report.axioms_ok:
                        out.append((cat, resolve_weqs(cat, chosen),
                                    dict(doc, weak_equivalences=list(chosen))))
    return out


def inconclusive_doc():
    """Constant maps plus one non-split injection u as the only member.

    u equalizes nothing (injective and surjective on the carriers), so
    the homotopy relation is discrete; u is not split, and every
    hom-set is inhabited, so no emptiness witness exists either.
    """
    return {
        "objects": ["a", "b"],
        "morphisms": [
            {"name": "p", "dom": "a", "cod": "a"},
            {"name": "c", "dom": "a", "cod": "b"},
            {"name": "q", "dom": "b", "cod": "b"},
            {"name": "v", "dom": "b", "cod": "a"},
            {"name": "u", "dom": "a", "cod": "b"},
        ],
        "composition": [
            {"after": "p", "before": "p", "equals": "p"},
            {"after": "u", "before": "p", "equals": "c"},
            {"after": "c", "before": "p", "equals": "c"},
            {"after": "q", "before": "u", "equals": "c"},
            {"after": "v", "before": "u", "equals": "p"},
            {"after": "q", "before": "c", "equals": "c"},
            {"after": "v", "before": "c", "equals": "p"},
            {"after": "q", "before": "q", "equals": "q"},
            {"after": "v", "before": "q", "equals": "v"},
            {"after": "p", "before": "v", "equals": "v"},
            {"after": "u", "before": "v", "equals": "q"},
            {"after": "c", "before": "v", "equals": "q"},
            {"after": "u", "before": "id:a", "equals": "u"},
            {"after": "id:b", "before": "u", "equals": "u"},
        ],
        "weak_equivalences": ["u"],
    }
