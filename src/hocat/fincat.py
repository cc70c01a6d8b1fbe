"""Finite categories presented by explicit composition tables.

A category is given by its objects, its arrows, and a total composition
table over the composable pairs.  Arrows are dense integer indices
internally; textual names appear only at the boundary (input documents,
reports, error messages).

Composition convention: ``table[g][f]`` is "f first, then g", i.e. the
usual g∘f, and is -1 unless ``cod(f) == dom(g)``.  Input documents use
the same convention through ``{"after": g, "before": f, "equals": h}``
entries.  Identity arrows carry the reserved name ``id:<object>`` and are
synthesized when a document omits them; they always occupy the lowest
indices, in object order.

A category's objects, arrows and table never change after construction.
It caches in its ``vars``, on first use, its ``generators`` and the
:class:`~hocat.homotopy.Analysis` the homotopy functions hold for its
last family; two threads filling a cache at once may each compute it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import FormatError, ValidationError

ID_PREFIX = "id:"

DIRECTIONS = ("left", "right")


def id_name(obj: str) -> str:
    """Reserved name of the identity arrow on ``obj``."""
    return ID_PREFIX + obj


@dataclass(frozen=True)
class Mor:
    """One arrow: display name plus object indices."""

    name: str
    dom: int
    cod: int


class FinCat:
    """A finite category with a validated, total composition table.

    ``table[g][f]`` holds the index of g∘f (f applied first), or -1 when
    the pair is not composable.  Use :func:`validate_category` to build
    instances from untrusted data; the constructor trusts its arguments.
    """

    def __init__(self, objects: Sequence[str], morphisms: Sequence[Mor],
                 identity: Sequence[int], table: Sequence[Sequence[int]]):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.identity = tuple(identity)
        self.table = tuple(tuple(row) for row in table)
        self._obj_index = {o: i for i, o in enumerate(self.objects)}
        self._mor_index = {m.name: i for i, m in enumerate(self.morphisms)}
        hom: dict[tuple[int, int], list[int]] = {}
        for i, m in enumerate(self.morphisms):
            hom.setdefault((m.dom, m.cod), []).append(i)
        self._hom = {k: tuple(v) for k, v in hom.items()}
        self.identity_set = frozenset(self.identity)
        # incoming[x] / outgoing[x]: arrows with cod x / dom x, by index.
        self.incoming = tuple(
            tuple(i for i, m in enumerate(self.morphisms) if m.cod == x)
            for x in range(len(self.objects)))
        self.outgoing = tuple(
            tuple(i for i, m in enumerate(self.morphisms) if m.dom == x)
            for x in range(len(self.objects)))

    # -- lookups -------------------------------------------------------

    def obj(self, x) -> int:
        """Object index from a name or an index."""
        if isinstance(x, str):
            try:
                return self._obj_index[x]
            except KeyError:
                raise ValidationError(f"unknown object {x!r}") from None
        i = int(x)
        if not 0 <= i < len(self.objects):
            raise ValidationError(f"object index {i} out of range")
        return i

    def mor(self, x) -> int:
        """Morphism index from a name or an index."""
        if isinstance(x, str):
            try:
                return self._mor_index[x]
            except KeyError:
                raise ValidationError(f"unknown morphism {x!r}") from None
        i = int(x)
        if not 0 <= i < len(self.morphisms):
            raise ValidationError(f"morphism index {i} out of range")
        return i

    def obj_name(self, i: int) -> str:
        return self.objects[i]

    def mor_name(self, i: int) -> str:
        return self.morphisms[i].name

    def dom(self, f) -> int:
        return self.morphisms[self.mor(f)].dom

    def cod(self, f) -> int:
        return self.morphisms[self.mor(f)].cod

    def hom(self, a, b) -> tuple[int, ...]:
        """Arrows from a to b, ascending by index."""
        return self._hom.get((self.obj(a), self.obj(b)), ())

    def one_sided_inverses(self, f) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The arrows g: cod f -> dom f with g∘f = id (left inverses)
        and those with f∘g = id (right inverses), each ascending."""
        f = self.mor(f)
        m, table = self.morphisms[f], self.table
        pool = self._hom.get((m.cod, m.dom), ())
        idx, idy = self.identity[m.dom], self.identity[m.cod]
        return (tuple(g for g in pool if table[g][f] == idx),
                tuple(g for g in pool if table[f][g] == idy))

    def inverse(self, f) -> int | None:
        """The lowest-index two-sided inverse of ``f``, or None."""
        left, right = self.one_sided_inverses(f)
        return next((g for g in left if g in right), None)

    def hom_pairs(self) -> tuple[tuple[int, int], ...]:
        """Ordered object pairs with at least one arrow."""
        return tuple(sorted(self._hom))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A set of arrows whose composites, with the identities, are
        every arrow; ascending.

        Arrows are walked in index order, and one is kept unless it is
        already a composite of those kept before it.  The composites
        reached so far grow by post-composition from the identities:
        a kept arrow f is pushed after each reached arrow it can follow,
        and each newly reached arrow is post-composed with every kept
        arrow out of its codomain.  A generating set of a category also
        generates its opposite, so :func:`opposite` hands the set on.
        """
        table, morphisms = self.table, self.morphisms
        reached = set(self.identity)
        kept: list[int] = []
        kept_out: list[list[int]] = [[] for _ in self.objects]  # by domain
        for f, m in enumerate(morphisms):
            if f not in reached:
                kept.append(f)
                kept_out[m.dom].append(f)
                work = [table[f][r] for r in self.incoming[m.dom] if r in reached]
                while work:
                    x = work.pop()
                    if x not in reached:
                        reached.add(x)
                        work.extend(table[k][x] for k in kept_out[morphisms[x].cod])
        return tuple(kept)

    def __eq__(self, other):
        if not isinstance(other, FinCat):
            return NotImplemented
        return (self.objects == other.objects
                and self.morphisms == other.morphisms
                and self.identity == other.identity
                and self.table == other.table)

    def __hash__(self):
        return hash((self.objects, self.morphisms))

    def __repr__(self):
        return f"FinCat({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


@dataclass(frozen=True)
class RawCategory:
    """Parsed but unvalidated category document, by name throughout.

    ``morphisms`` lists identities first (object order, reserved names),
    then the declared arrows in declaration order.  ``subcategory`` and
    ``deformation`` are the document's blocks as given, or None.  Where
    the document came from is the caller's to keep.
    """

    objects: tuple[str, ...]
    morphisms: tuple[tuple[str, str, str], ...]     # (name, dom, cod)
    composition: tuple[tuple[str, str, str], ...]   # (after, before, equals)
    weak_equivalences: tuple[str, ...]
    subcategory: dict | None
    deformation: tuple[dict, ...] | None


def _require(cond: bool, msg: str):
    if not cond:
        raise FormatError(msg)


def known_name(value, pool, what: str) -> str:
    """``value`` when it is a name (a string) in ``pool``.

    Anything else, a number or a list included, is malformed input; the
    message is ``what`` followed by the value.
    """
    if not (isinstance(value, str) and value in pool):
        raise FormatError(f"{what} {value!r}")
    return value


_comp_entry = itemgetter("after", "before", "equals")


def _all_names(values, pool: set[str]) -> bool:
    """Whether every value is a name in ``pool``, a set of strings.

    An unhashable value, such as a list, is in no set of strings.
    """
    try:
        return pool.issuperset(values)
    except TypeError:
        return False


def load_spec(document) -> RawCategory:
    """Parse a category document into raw, structurally checked data.

    ``document`` is a mapping (already decoded) or a JSON string.  The
    checks here are purely structural: field shapes, duplicate names, and
    dangling references.  Category laws are the business of
    :func:`validate_category`.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise FormatError(f"not valid JSON: {e}") from None
    _require(isinstance(document, dict), "document must be a JSON object")

    known = {"objects", "morphisms", "composition", "weak_equivalences",
             "subcategory", "deformation"}
    for key in document:
        _require(key in known, f"unknown top-level field {key!r}")

    objects = document.get("objects")
    _require(isinstance(objects, list) and objects, "objects: nonempty list required")
    _require(all(isinstance(o, str) and o for o in objects), "objects: names must be nonempty strings")
    _require(len(set(objects)) == len(objects), "duplicate object name")
    for o in objects:
        _require(not o.startswith(ID_PREFIX), f"object name {o!r} uses the reserved prefix {ID_PREFIX!r}")
        # Reports key each hom-set "x>y", so a ">" in a name makes keys collide.
        _require(">" not in o, f"object name {o!r}: '>' is reserved to separate hom-set keys")
    obj_set = set(objects)

    declared = document.get("morphisms", [])
    _require(isinstance(declared, list), "morphisms: list required")
    names_seen: set[str] = set()
    identities = {o: (id_name(o), o, o) for o in objects}
    plain: list[tuple[str, str, str]] = []
    for entry in declared:
        _require(isinstance(entry, dict), "morphisms: entries must be objects")
        if set(entry) != {"name", "dom", "cod"}:
            raise FormatError(f"morphism entry needs exactly name/dom/cod, got {sorted(entry)}")
        name, dom, cod = entry["name"], entry["dom"], entry["cod"]
        _require(isinstance(name, str) and name, "morphism name must be a nonempty string")
        _require(name not in names_seen, f"duplicate morphism name {name!r}")
        names_seen.add(name)
        known_name(dom, obj_set, f"morphism {name!r}: unknown dom")
        known_name(cod, obj_set, f"morphism {name!r}: unknown cod")
        if name.startswith(ID_PREFIX):
            # A declared identity must sit where synthesis would put it.
            _require(name == id_name(dom) and dom == cod,
                     f"reserved name {name!r} must be the identity of its object")
            continue
        plain.append((name, dom, cod))
    morphisms = tuple(identities[o] for o in objects) + tuple(plain)
    mor_names = {m[0] for m in morphisms}

    # Entries are shape-checked one by one and their names all at once.
    # Only when either check fails does the entry-by-entry loop run; it
    # raises on the first bad entry in document order.
    composition = document.get("composition", [])
    _require(isinstance(composition, list), "composition: list required")
    try:  # an entry of three keys, these among them, has exactly these
        comp_entries = [_comp_entry(e) for e in composition if isinstance(e, dict) and len(e) == 3]
    except KeyError:
        comp_entries = []
    names = chain.from_iterable(comp_entries)
    if len(comp_entries) < len(composition) or not _all_names(names, mor_names):
        for entry in composition:
            _require(isinstance(entry, dict), "composition: entries must be objects")
            if set(entry) != {"after", "before", "equals"}:
                raise FormatError(f"composition entry needs exactly after/before/equals, got {sorted(entry)}")
            for k in ("after", "before", "equals"):
                known_name(entry[k], mor_names, "composition entry references unknown morphism")

    weqs = document.get("weak_equivalences", [])
    _require(isinstance(weqs, list), "weak_equivalences: list required")
    if not _all_names(weqs, mor_names):
        for w in weqs:
            known_name(w, mor_names, "weak_equivalences references unknown morphism")
    _require(len(set(weqs)) == len(weqs), "duplicate weak equivalence name")

    def check_subcategory(sub, where: str):
        _require(isinstance(sub, dict) and set(sub) <= {"objects", "morphisms"},
                 f"{where}: object with fields objects/morphisms")
        _require(isinstance(sub.get("objects"), list) and sub["objects"],
                 f"{where}.objects: nonempty list required")
        for o in sub["objects"]:
            known_name(o, obj_set, f"{where} references unknown object")
        if "morphisms" in sub:
            _require(isinstance(sub["morphisms"], list), f"{where}.morphisms: list required")
            for m in sub["morphisms"]:
                known_name(m, mor_names, f"{where} references unknown morphism")

    subcat = document.get("subcategory")
    if subcat is not None:
        check_subcategory(subcat, "subcategory")

    deformation = document.get("deformation")
    if deformation is not None:
        if isinstance(deformation, dict):
            deformation = [deformation]
        _require(isinstance(deformation, list) and deformation,
                 "deformation: block or nonempty list of blocks required")
        for block in deformation:
            _require(isinstance(block, dict), "deformation: blocks must be objects")
            _require({"direction", "on_objects", "on_morphisms", "theta"} <= set(block),
                     "deformation block needs direction/on_objects/on_morphisms/theta")
            _require(set(block) <= {"direction", "on_objects", "on_morphisms", "theta", "target"},
                     f"deformation block has unknown fields: {sorted(block)}")
            _require(block["direction"] in DIRECTIONS, "deformation direction must be left or right")
            for field_name in ("on_objects", "theta"):
                m = block[field_name]
                _require(isinstance(m, dict), f"deformation.{field_name}: object map required")
                pool = obj_set if field_name == "on_objects" else mor_names
                for k, v in m.items():
                    known_name(k, obj_set, f"deformation.{field_name}: unknown object")
                    known_name(v, pool, f"deformation.{field_name}: unknown reference")
            _require(isinstance(block["on_morphisms"], dict), "deformation.on_morphisms: object map required")
            for k, v in block["on_morphisms"].items():
                known_name(k, mor_names, "deformation.on_morphisms: unknown morphism")
                known_name(v, mor_names, "deformation.on_morphisms: unknown morphism")
            if block.get("target") is not None:
                check_subcategory(block["target"], "deformation.target")
        deformation = tuple(deformation)

    return RawCategory(
        objects=tuple(objects),
        morphisms=morphisms,
        composition=tuple(comp_entries),
        weak_equivalences=tuple(weqs),
        subcategory=subcat,
        deformation=deformation,
    )


def read_json(path):
    """The JSON document in the file at ``path``.

    A file that cannot be read, is not UTF-8 or is not JSON is malformed
    input; the message names the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read {path}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: not valid JSON: {e}") from None


def load_file(path) -> RawCategory:
    """Read and parse a category document from ``path``."""
    return load_spec(read_json(path))


def validate_category(raw: RawCategory) -> FinCat:
    """Check the category laws and build the immutable table form.

    Fails on: a composable pair with no declared composite (identity
    composites are derived), an entry that contradicts the identity laws
    or another entry, endpoint mismatches, and associativity violations.
    Every composable pair is checked, a whole table row at a time, and
    associativity by Light's test (Clifford and Preston, *The Algebraic
    Theory of Semigroups* I, §1.2): with the table total and the
    identity laws holding, the arrows g with h∘(g∘f) = (h∘g)∘f for all
    h and f are closed under composition, so only the triples with a
    middle arrow in :attr:`FinCat.generators` need checking.  Only when
    one fails are all triples scanned, so the error names the first
    witness in (g, f), respectively (h, g, f), index order.
    """
    objects = raw.objects
    obj_index = {o: i for i, o in enumerate(objects)}
    morphisms = tuple(Mor(n, obj_index[d], obj_index[c]) for n, d, c in raw.morphisms)
    mor_index = {m.name: i for i, m in enumerate(morphisms)}
    n = len(morphisms)
    identity = tuple(mor_index[id_name(o)] for o in objects)

    table = [[-1] * n for _ in range(n)]
    # Identity laws fill the derivable entries first.
    for f, m in enumerate(morphisms):
        table[f][identity[m.dom]] = f
        table[identity[m.cod]][f] = f
    for after, before, equals in raw.composition:
        g, f, h = mor_index[after], mor_index[before], mor_index[equals]
        if morphisms[g].dom != morphisms[f].cod:
            raise ValidationError(
                f"composition entry {after!r} after {before!r}: not composable")
        if morphisms[h].dom != morphisms[f].dom or morphisms[h].cod != morphisms[g].cod:
            raise ValidationError(
                f"composition entry {after!r} after {before!r} = {equals!r}: endpoint mismatch")
        if table[g][f] >= 0 and table[g][f] != h:
            raise ValidationError(
                f"composition entry {after!r} after {before!r} = {equals!r} contradicts "
                f"{morphisms[table[g][f]].name!r} (identity law or duplicate entry)")
        table[g][f] = h

    # The laws are checked on the table form.  The fill writes only
    # composable cells, so a row is total exactly when its -1 count is
    # that of the arrows it cannot follow.
    cat = FinCat(objects, morphisms, identity, table)
    table, incoming = cat.table, cat.incoming
    for g, m in enumerate(morphisms):
        if table[g].count(-1) != n - len(incoming[m.dom]):
            f = next(f for f in incoming[m.dom] if table[g][f] < 0)
            raise ValidationError(
                f"missing composite: {m.name!r} after {morphisms[f].name!r}")

    # Associativity h∘(g∘f) = (h∘g)∘f, one (h, g) at a time over every f
    # into dom g: after(g) reads row h at each g∘f, and rows[k] is row k
    # read at each f into dom k, so rows[h∘g] is the right side.  A
    # one-arrow gather yields a scalar on both sides alike.
    gather = [itemgetter(*arrows) for arrows in incoming]
    rows = [gather[m.dom](table[k]) for k, m in enumerate(morphisms)]
    after = cache(lambda g: itemgetter(*(table[g][f] for f in incoming[morphisms[g].dom])))

    def associates(h, g) -> bool:
        return after(g)(table[h]) == rows[table[h][g]]

    if all(associates(h, g) for g in cat.generators for h in cat.outgoing[morphisms[g].cod]):
        return cat
    h, g = next((h, g) for h, mh in enumerate(morphisms) for g in incoming[mh.dom]
                if not associates(h, g))
    f = next(f for f in incoming[morphisms[g].dom]
             if table[h][table[g][f]] != table[table[h][g]][f])
    raise ValidationError(
        "associativity violation on triple "
        f"({morphisms[h].name!r}, {morphisms[g].name!r}, {morphisms[f].name!r})")


def resolve_weqs(cat: FinCat, names: Iterable) -> frozenset[int]:
    """Resolve a declared weak equivalence family; identities are implicit."""
    members = {cat.mor(x) for x in names}
    members.update(cat.identity_set)
    return frozenset(members)


def opposite(cat: FinCat) -> FinCat:
    """The opposite category, arrows keeping their indices and names.

    The table transposes: a pair composable one way round becomes
    composable the other way round.  Applying this twice gives back an
    equal category.
    """
    morphisms = tuple(Mor(m.name, m.cod, m.dom) for m in cat.morphisms)
    op = FinCat(cat.objects, morphisms, cat.identity, zip(*cat.table))
    if "generators" in vars(cat):  # they generate the opposite too
        op.generators = cat.generators
    return op


class CatFunctor:
    """A functor between finite categories, validated exhaustively:
    endpoints, identities and every composable pair."""

    def __init__(self, source: FinCat, target: FinCat,
                 on_objects: Sequence[int], on_morphisms: Sequence[int]):
        self.source = source
        self.target = target
        self.on_objects = tuple(on_objects)
        self.on_morphisms = tuple(on_morphisms)
        if len(self.on_objects) != len(source.objects):
            raise ValidationError("functor: on_objects must cover every object")
        if len(self.on_morphisms) != len(source.morphisms):
            raise ValidationError("functor: on_morphisms must cover every morphism")
        for x in self.on_objects:
            target.obj(x)
        for f, m in enumerate(source.morphisms):
            img = self.on_morphisms[f]
            target.mor(img)
            if (target.dom(img) != self.on_objects[m.dom]
                    or target.cod(img) != self.on_objects[m.cod]):
                raise ValidationError(f"functor breaks endpoints on {m.name!r}")
        for x in range(len(source.objects)):
            if self.on_morphisms[source.identity[x]] != target.identity[self.on_objects[x]]:
                raise ValidationError(
                    f"functor breaks the identity on {source.obj_name(x)!r}")
        # F(g∘f) = F(g)∘F(f), one source row g at a time over every f
        # into dom g: the first gather reads row g at the arrows into
        # dom g, the second a target row at their images F(f).  A
        # one-arrow gather yields a scalar on both sides, whose image is
        # read directly.  Only a failing row is scanned for its first f.
        on, table, ttable = self.on_morphisms, source.table, target.table
        gathers = [(itemgetter(*into), itemgetter(*map(on.__getitem__, into)), len(into) == 1)
                   for into in source.incoming]
        for g, m in enumerate(source.morphisms):
            arrows, images, lone = gathers[m.dom]
            after = arrows(table[g])
            if (on[after] if lone else itemgetter(*after)(on)) != images(ttable[on[g]]):
                f = next(f for f in source.incoming[m.dom]
                         if on[table[g][f]] != ttable[on[g]][on[f]])
                raise ValidationError(
                    "functor breaks composition on "
                    f"({m.name!r}, {source.mor_name(f)!r})")

    def __repr__(self):
        return f"CatFunctor({self.source!r} -> {self.target!r})"


@dataclass(frozen=True)
class Subcategory:
    """A subcategory of ``parent`` materialized as its own FinCat.

    ``objects`` and ``morphisms`` are ascending parent indices; ``cat``
    is the restricted category reusing the parent's names.
    """

    parent: FinCat
    objects: tuple[int, ...]
    morphisms: tuple[int, ...]
    cat: FinCat


def subcategory(cat: FinCat, objects: Iterable, morphisms: Iterable | None = None) -> Subcategory:
    """Restrict to a subcategory; morphisms default to the full one.

    Identities of the chosen objects are always included.  Fails if an
    arrow's endpoints fall outside the chosen objects or the selection is
    not closed under composition.
    """
    objs = sorted({cat.obj(x) for x in objects})
    if morphisms is None:
        mors = sorted(m for x in objs for y in objs for m in cat.hom(x, y))
    else:
        chosen = {cat.mor(m) for m in morphisms}
        chosen.update(cat.identity[x] for x in objs)
        mors = sorted(chosen)
    obj_set = set(objs)
    for m in mors:
        if cat.dom(m) not in obj_set or cat.cod(m) not in obj_set:
            raise ValidationError(
                f"subcategory: {cat.mor_name(m)!r} has an endpoint outside the chosen objects")
    sub_obj = {x: i for i, x in enumerate(objs)}
    sub_mor = {m: i for i, m in enumerate(mors)}
    rmorphisms = tuple(Mor(cat.mor_name(m), sub_obj[cat.dom(m)], sub_obj[cat.cod(m)]) for m in mors)
    identity = tuple(sub_mor[cat.identity[x]] for x in objs)
    table = [[-1] * len(mors) for _ in mors]
    for gi, g in enumerate(mors):
        row = cat.table[g]
        for fi, f in enumerate(mors):
            if row[f] < 0:
                continue
            if row[f] not in sub_mor:
                raise ValidationError(
                    "subcategory not closed under composition: "
                    f"{cat.mor_name(g)!r} after {cat.mor_name(f)!r}")
            table[gi][fi] = sub_mor[row[f]]
    sub = FinCat(tuple(cat.obj_name(x) for x in objs), rmorphisms, identity, table)
    return Subcategory(cat, tuple(objs), tuple(mors), sub)

