"""Output checks computed apart from hocat.

Each check recomputes what an output must say from the benchmark's own
model of the input, either a :class:`gen.FunCat` (the functions behind
every arrow) or a :class:`Table` read straight from a category
document, and raises :class:`CheckError` on the first disagreement.
None of them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

from collections import defaultdict


class CheckError(Exception):
    """An output that contradicts the independent computation."""


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


class Table:
    """Composition table of a category document, by arrow name."""

    def __init__(self, doc):
        self.objects = list(doc["objects"])
        self.ident = {o: f"id:{o}" for o in self.objects}
        self.ends = {i: (o, o) for o, i in self.ident.items()}
        for m in doc["morphisms"]:
            self.ends.setdefault(m["name"], (m["dom"], m["cod"]))
        self.table = {(e["after"], e["before"]): e["equals"] for e in doc["composition"]}
        for m, (d, c) in self.ends.items():
            self.table[(m, self.ident[d])] = m
            self.table[(self.ident[c], m)] = m
        self.members = set(doc.get("weak_equivalences", ())) | set(self.ident.values())
        self.hom = defaultdict(list)
        self.outgoing = defaultdict(list)
        self.incoming = defaultdict(list)
        for m, (d, c) in self.ends.items():
            self.hom[(d, c)].append(m)
            self.outgoing[d].append(m)
            self.incoming[c].append(m)

    def comp(self, g, f):
        """g∘f, f applied first."""
        return self.table[(g, f)]


def two_of_three_ok(t):
    for f, (d, c) in t.ends.items():
        for g in t.outgoing[c]:
            if sum(x in t.members for x in (f, g, t.comp(g, f))) == 2:
                return False
    return True


def homotopy_classes(t):
    """Least congruence containing every parallel pair that a member
    equalizes by post- or pre-composition; returns arrow -> class root."""
    root = {m: m for m in t.ends}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    work = []
    for (d, c), arrows in t.hom.items():
        for i, f in enumerate(arrows):
            for g in arrows[i + 1:]:
                if (any(t.comp(w, f) == t.comp(w, g) for w in t.outgoing[c] if w in t.members)
                        or any(t.comp(f, w) == t.comp(g, w) for w in t.incoming[d] if w in t.members)):
                    work.append((f, g))
    while work:
        f, g = work.pop()
        rf, rg = find(f), find(g)
        if rf == rg:
            continue
        root[rg] = rf
        d, c = t.ends[f]
        work.extend((t.comp(f, u), t.comp(g, u)) for u in t.incoming[d])
        work.extend((t.comp(v, f), t.comp(v, g)) for v in t.outgoing[c])
    return {m: find(m) for m in t.ends}


def invertible(t, cls, f):
    """Some g with g∘f ~ id and f∘g ~ id under the classes ``cls``."""
    d, c = t.ends[f]
    return any(cls[t.comp(g, f)] == cls[t.ident[d]] and cls[t.comp(f, g)] == cls[t.ident[c]]
               for g in t.hom[(c, d)])


def split_generated(t):
    """Every member is a composite of members with a one-sided inverse."""
    split = {s for s in t.members
             for r in t.hom[(t.ends[s][1], t.ends[s][0])]
             if t.comp(r, s) == t.ident[t.ends[s][0]] or t.comp(s, r) == t.ident[t.ends[s][1]]}
    reached, work = set(split), list(split)
    while work:
        x = work.pop()
        for s in split:
            if t.ends[s][0] == t.ends[x][1]:
                c = t.comp(s, x)
                if c in t.members and c not in reached:
                    reached.add(c)
                    work.append(c)
    return t.members <= reached


def connected_empty_hom(t):
    """Object pairs joined by a zigzag of arrows and backward members
    whose hom-set is empty."""
    out = set()
    for x in t.objects:
        seen, work = {x}, [x]
        while work:
            at = work.pop()
            nxt = [t.ends[m][1] for m in t.outgoing[at]]
            nxt += [t.ends[m][0] for m in t.incoming[at] if m in t.members]
            for y in nxt:
                if y not in seen:
                    seen.add(y)
                    work.append(y)
        out.update((x, y) for y in seen if not t.hom[(x, y)])
    return out


def check_zigzag_walk(t, z):
    at = z["source"]
    for m, direction in z["steps"]:
        d, c = t.ends[m]
        if direction == "fwd":
            require(d == at, f"witness step {m} does not leave {at}")
            at = c
        else:
            require(c == at and m in t.members, f"witness step {m} bwd is not a member into {at}")
            at = d
    require(at == z["target"], "witness zigzag ends elsewhere")


def check_analysis(t, out):
    """``hocat analyze --format json`` output against the table ``t``."""
    axioms_ok = two_of_three_ok(t)
    require(out["axioms"]["ok"] == axioms_ok and out["axioms"]["two_of_three"] == axioms_ok,
            f"axiom verdict {out['axioms']['ok']} but two out of three is {axioms_ok}")
    if not axioms_ok:
        for key in ("splits", "homotopy", "whitehead", "forks", "saturation"):
            require(out[key] == "skipped", f"{key} ran although the axioms fail")
        return
    require(out["splits"]["generated"] == split_generated(t), "split generation verdict")

    cls = homotopy_classes(t)
    groups = defaultdict(set)
    for m, r in cls.items():
        groups[r].add(m)
    want = sorted(sorted(g) for g in groups.values() if len(g) > 1)
    got = sorted(sorted(g) for g in out["homotopy"]["nonsingleton_classes"])
    require(got == want, "homotopy classes differ from the least congruence "
            "containing the pairs members equalize")
    require(out["homotopy"]["classes"] == len(groups), "homotopy class count")

    certified = all(invertible(t, cls, w) for w in t.members)
    status = out["whitehead"]
    if certified:
        require(status == "certified", f"Whitehead {status} but every member is invertible")
        inverses = out["whitehead_detail"]["inverses"]
        require(set(inverses) == t.members, "inverse table does not cover the members")
        for w, g in inverses.items():
            d, c = t.ends[w]
            require(t.ends[g] == (c, d), f"inverse of {w} has the wrong endpoints")
            require(cls[t.comp(g, w)] == cls[t.ident[d]]
                    and cls[t.comp(w, g)] == cls[t.ident[c]],
                    f"{g} is not an inverse of {w} modulo the classes")
        require(out["quotient"]["morphisms"] == len(groups), "quotient arrow count")
        sat = out["saturation"]
        violations = sorted(f for f in t.ends if f not in t.members and invertible(t, cls, f))
        require(sat["saturated"] == (not violations) and sorted(sat["violations"]) == violations,
                "saturation verdict")
        for side in ("left", "right"):
            require(sat[f"fork_{side}"] == out["forks"][side]["fork_condition"],
                    "saturation and forks disagree on the fork condition")
    else:
        empty = connected_empty_hom(t)
        require(status == ("failed" if empty else "inconclusive"),
                f"Whitehead {status} but connected empty hom-sets are {sorted(empty)}")
        if empty:
            z = out["whitehead_detail"]["witness"]["zigzag"]
            require((z["source"], z["target"]) in empty, "witness hom-set is not empty")
            check_zigzag_walk(t, z)


def _inverse_endpoints(fc, inverses):
    """Each listed inverse runs cod -> dom of its arrow, for every arrow."""
    require(set(inverses) == set(fc.key), "inverse table does not cover every arrow")
    for w, g in inverses.items():
        d, c = fc.endpoints(w)
        require(fc.endpoints(g) == (c, d), f"inverse of {w} has the wrong endpoints")


def check_all_functions_analysis(fc, out):
    """W is every arrow: a member into the one-point set equalizes any
    parallel pair, so the homotopy classes are exactly the nonempty
    hom-sets, and every quotient hom-set holds one class."""
    homs = fc.hom_sets()
    require(out["axioms"]["ok"] and out["axioms"]["weak_invertibility"], "axioms must hold")
    require(out["splits"]["generated"], "every function factors through its image")
    require(out["homotopy"]["classes"] == len(homs), "classes must be the nonempty hom-sets")
    want = sorted(sorted(a) for a in homs.values() if len(a) > 1)
    require(sorted(sorted(c) for c in out["homotopy"]["nonsingleton_classes"]) == want,
            "classes must be the nonempty hom-sets")
    require(out["whitehead"] == "certified", "Whitehead must be certified")
    _inverse_endpoints(fc, out["whitehead_detail"]["inverses"])
    q = out["quotient"]
    require(q["morphisms"] == len(homs) and len(q["homs"]) == len(homs)
            and all(len(v) == 1 for v in q["homs"].values()),
            "every quotient hom-set must hold one class")
    sat = out["saturation"]
    require(sat["saturated"] and sat["violations"] == [], "no arrow lies outside W")
    for side in ("left", "right"):
        require(sat[f"fork_{side}"] == out["forks"][side]["fork_condition"],
                "saturation and forks disagree on the fork condition")
    require(out["deformation"] == "absent", "no deformation was given")


def check_all_functions_library(fc, stages):
    """The library stages of ``hocat quotient`` with W every arrow."""
    cat = stages["validate_category"]
    name = cat.mor_name
    require(sorted(cat.objects) == sorted(fc.objects) and len(cat.morphisms) == len(fc.key),
            "validated category has the wrong size")
    for g in range(len(cat.morphisms)):
        row = cat.table[g]
        for f in cat.incoming[cat.dom(g)]:
            require(name(row[f]) == fc.comp(name(g), name(f)),
                    f"table entry {name(g)} after {name(f)}")
    family = stages["check_weq_axioms"]
    require(family.report.axioms_ok and family.members == frozenset(range(len(fc.key))),
            "axioms must hold with every arrow a member")
    require(stages["check_split_generated"].generated, "every function factors through its image")
    homs = sorted(sorted(a) for a in fc.hom_sets().values())
    for key in ("homotopy_congruence", "certify_whitehead"):
        cong = stages[key] if key == "homotopy_congruence" else stages[key].congruence
        require(sorted(sorted(map(name, c)) for c in cong.classes) == homs,
                f"{key}: classes must be the nonempty hom-sets")
    res = stages["certify_whitehead"]
    require(res.status == "certified", "Whitehead must be certified")
    _inverse_endpoints(fc, {name(w): name(g) for w, g in res.certificate.inverse_table.items()})
    q = stages["quotient"].quotient
    require(len(q.morphisms) == len(homs)
            and all(len(q.hom(x, y)) == 1 for x, y in q.hom_pairs()),
            "every quotient hom-set must hold one class")


def check_zigzag(query, out):
    """With W the bijections the localization is the category itself,
    so a pair is equivalent iff the composite functions are equal."""
    if query.equivalent:
        require(out["status"] == "equivalent",
                f"equivalent pair answered {out['status']} within budget")
        trace = out["trace"]
        for end, z in (("start", query.first), ("end", query.second)):
            require(trace[end]["source"] == z["start"] and trace[end]["steps"] == z["steps"],
                    f"trace {end} is not the queried zigzag")
    else:
        require(out["status"] in ("unknown", "inequivalent"),
                f"inequivalent pair answered {out['status']}")
