"""Seeded inputs: categories of functions between small finite sets.

Every arrow is a genuine function, so composition is function
composition and the laws hold by construction.  The checks in
``checks.py`` consult these models, or the documents they write, so they
stay independent of hocat.
"""

from __future__ import annotations

import itertools
import json
import os


def compose(g, f):
    """g∘f on arrow keys (dom, cod, graph), f applied first."""
    return (f[0], g[1], tuple(g[2][v] for v in f[2]))


def is_bijection(a, sizes):
    return sizes[a[0]] == sizes[a[1]] and len(set(a[2])) == len(a[2])


class FunCat:
    """A set of functions closed under composition, with names.

    ``sizes[i]`` is the size of object i's carrier ``range(sizes[i])``.
    Identities are named ``id:<object>`` as the interchange format
    reserves; the other arrows are named in the order the generator
    declares them, which the seed shuffles.
    """

    def __init__(self, sizes, arrows, rng):
        self.objects = [f"o{i}" for i in range(len(sizes))]
        self.ids = {(i, i, tuple(range(n))) for i, n in enumerate(sizes)}
        plain = sorted(a for a in arrows if a not in self.ids)
        rng.shuffle(plain)
        self.plain = plain
        self.name = {a: f"id:{self.objects[a[0]]}" for a in self.ids}
        self.name.update((a, f"m{k}") for k, a in enumerate(plain))
        self.key = {v: k for k, v in self.name.items()}
        self.arrows = sorted(self.ids) + plain

    def comp(self, g, f):
        """Name of g∘f for arrow names g and f."""
        return self.name[compose(self.key[g], self.key[f])]

    def endpoints(self, m):
        a = self.key[m]
        return a[0], a[1]

    def hom_sets(self):
        """Nonempty hom-sets as {(dom, cod): [arrow names]}."""
        out = {}
        for a in self.arrows:
            out.setdefault(a[:2], []).append(self.name[a])
        return out

    def document(self, members, rng):
        """The interchange document with weak equivalences ``members`` (keys)."""
        objs = self.objects
        composition = [
            {"after": self.name[g], "before": self.name[f],
             "equals": self.name[compose(g, f)]}
            for f in self.plain for g in self.plain if f[1] == g[0]]
        rng.shuffle(composition)
        return {
            "objects": list(objs),
            "morphisms": [{"name": self.name[a], "dom": objs[a[0]], "cod": objs[a[1]]}
                          for a in self.plain],
            "composition": composition,
            "weak_equivalences": sorted(self.name[a] for a in members
                                        if a not in self.ids),
        }


def all_functions(sizes, rng):
    """Every function between the carriers of the given sizes."""
    arrows = [(d, c, graph)
              for d, nd in enumerate(sizes) for c, nc in enumerate(sizes)
              for graph in itertools.product(range(nc), repeat=nd)]
    return FunCat(sizes, arrows, rng)


def close(sizes, seeds, cap):
    """Close seed arrows and identities under composition; None past ``cap``."""
    arrows = {(i, i, tuple(range(n))) for i, n in enumerate(sizes)}
    arrows.update(seeds)
    work = list(arrows)
    while work:
        if len(arrows) > cap:
            return None
        f = work.pop()
        for g in list(arrows):
            for a, b in ((f, g), (g, f)):
                if a[1] == b[0]:
                    c = compose(b, a)
                    if c not in arrows:
                        arrows.add(c)
                        work.append(c)
    return arrows


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))


def fresh_dir(path):
    os.makedirs(path, exist_ok=True)
    for name in os.listdir(path):
        os.remove(os.path.join(path, name))


def relabel(arrow, perms):
    """Image of an arrow under the automorphism that permutes each
    carrier i by ``perms[i]``: f ↦ π_cod ∘ f ∘ π_dom⁻¹."""
    d, c, graph = arrow
    inv = [0] * len(perms[d])
    for x, y in enumerate(perms[d]):
        inv[y] = x
    return (d, c, tuple(perms[c][graph[inv[x]]] for x in range(len(graph))))


def random_category(rng, max_arrows=12, max_objects=3, max_size=3):
    """A random set of functions closed under composition."""
    while True:
        sizes = [rng.randint(1, max_size) for _ in range(rng.randint(1, max_objects))]
        n = len(sizes)
        seeds = set()
        for _ in range(rng.randint(1, 3)):
            d, c = rng.randrange(n), rng.randrange(n)
            seeds.add((d, c, tuple(rng.randrange(sizes[c]) for _ in range(sizes[d]))))
        # A section with a retraction onto it makes the homotopy relation
        # nontrivial; plant one in most categories.
        pairs = [(d, c) for d in range(n) for c in range(n) if sizes[d] < sizes[c]]
        if pairs and rng.random() < 0.6:
            d, c = rng.choice(pairs)
            image = rng.sample(range(sizes[c]), sizes[d])
            back = [rng.randrange(sizes[d]) for _ in range(sizes[c])]
            for x, y in enumerate(image):
                back[y] = x
            seeds.update({(d, c, tuple(image)), (c, d, tuple(back))})
        arrows = close(sizes, seeds, max_arrows)
        if arrows is not None:
            return sizes, sorted(arrows)


def split_arrows(arrows):
    """Arrows with a one-sided inverse among ``arrows``."""
    ids = {a for a in arrows if a[0] == a[1] and a[2] == tuple(range(len(a[2])))}
    out = set(ids)
    for s in arrows:
        for r in arrows:
            if s[1] == r[0] and r[1] == s[0] and compose(r, s) in ids:
                out.update((s, r))
    return out


def two_of_three_closure(arrows, members):
    """Smallest superset of ``members`` closed under two out of three."""
    members = set(members)
    changed = True
    while changed:
        changed = False
        for f in arrows:
            for g in arrows:
                if f[1] != g[0]:
                    continue
                trio = (f, g, compose(g, f))
                if sum(a in members for a in trio) == 2:
                    members.update(trio)
                    changed = True
    return members


STYLES = ("identities", "bijections", "split", "random")


def family(style, sizes, arrows, rng):
    """Weak equivalences in one of four styles; identities are implicit."""
    if style == "identities":
        return set()
    if style == "bijections":
        return {a for a in arrows if is_bijection(a, sizes)}
    if style == "split":
        return split_arrows(arrows)
    return two_of_three_closure(arrows, {a for a in arrows if rng.random() < 0.3})
