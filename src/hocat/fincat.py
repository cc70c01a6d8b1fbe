"""Finite categories presented by explicit composition tables.

A category is given by its objects, its arrows, and a total composition
table over the composable pairs.  Arrows are dense integer indices
internally; textual names appear only at the boundary (input documents,
reports, error messages).

Composition convention: ``table[g][f]`` is "f first, then g", i.e. the
usual g∘f, and is -1 unless ``cod(f) == dom(g)``.  Input documents use
the same convention through ``{"after": g, "before": f, "equals": h}``
entries, read once, in document order: the first entry whose names do
not resolve to arrows is named in the error.  Identity arrows carry the
reserved name ``id:<object>`` and are synthesized when a document omits
them; they always occupy the lowest indices, in object order.

A document text of more than :data:`CHUNK` characters is read a
top-level field at a time, and its composition list a piece of about
:data:`CHUNK` characters at a time: each piece is resolved to arrow
indices and freed before the next is decoded, so loading never holds
every entry as a dict.  Whatever that reader does not take, a document
within one chunk, fields out of order or repeated, any error, goes
through the whole-document path, which alone raises errors; so the raw
category and every message are the same either way.  Bytes are UTF-8
text, decoded before either path sees them.

A category's objects, arrows and table never change after construction.
It caches in its ``vars``, on first use, its ``generators`` (with the
post-composition ranks that order them); two threads filling the cache
at once may each compute it.  It holds nothing that points back to it,
so it is freed as soon as its last reference goes.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter, neg
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


def _lookup(x, index: dict, n: int, what: str) -> int:
    """The index ``x`` names among ``n`` objects or morphisms: a name in
    ``index``, or an int (a bool reads as its int) in range."""
    if isinstance(x, str):
        try:
            return index[x]
        except KeyError:
            raise ValidationError(f"unknown {what} {x!r}") from None
    if not isinstance(x, int):
        raise ValidationError(f"{what} must be a name or an index, not {x!r}")
    i = int(x)
    if not 0 <= i < n:
        raise ValidationError(f"{what} index {i} out of range")
    return i


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
        # incoming[x] / outgoing[x]: arrows with cod x / dom x, by index.
        incoming = [[] for _ in self.objects]
        outgoing = [[] for _ in self.objects]
        for i, m in enumerate(self.morphisms):
            hom.setdefault((m.dom, m.cod), []).append(i)
            incoming[m.cod].append(i)
            outgoing[m.dom].append(i)
        self._hom = {k: tuple(v) for k, v in hom.items()}
        self.identity_set = frozenset(self.identity)
        self.incoming = tuple(map(tuple, incoming))
        self.outgoing = tuple(map(tuple, outgoing))

    # -- lookups -------------------------------------------------------

    def obj(self, x) -> int:
        """Object index from a name or an index."""
        if type(x) is int and 0 <= x < len(self.objects):
            return x
        return _lookup(x, self._obj_index, len(self.objects), "object")

    def mor(self, x) -> int:
        """Morphism index from a name or an index."""
        if type(x) is int and 0 <= x < len(self.morphisms):
            return x
        return _lookup(x, self._mor_index, len(self.morphisms), "morphism")

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
    def _ranks(self) -> list[int]:
        """Each arrow's post-composition rank: the number of distinct
        composites f∘x over the arrows x into dom f.
        :func:`validate_category` reads them off its own gathers."""
        table, incoming = self.table, self.incoming
        return [len(set(map(table[f].__getitem__, incoming[m.dom])))
                for f, m in enumerate(self.morphisms)]

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A set of arrows whose composites, with the identities, are
        every arrow; ascending.

        The arrows are walked by post-composition rank, descending, ties
        broken by Light cost |out(cod f)|·|in(dom f)|, ascending, then
        by index, and one is kept unless those kept before it already
        compose to it (:func:`_greedy_generators`).  As r(g∘f) <=
        min(r(g), r(f)), an arrow's possible factors come before it,
        apart from ties, so few composites are kept.  A generating set
        of a category also generates its opposite, so :func:`opposite`
        hands the set on.
        """
        morphisms, incoming, outgoing = self.morphisms, self.incoming, self.outgoing
        costs = [len(outgoing[m.cod]) * len(incoming[m.dom]) for m in morphisms]
        keys = list(zip(map(neg, self._ranks), costs))
        return _greedy_generators(self, sorted(range(len(morphisms)), key=keys.__getitem__))

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


def _greedy_generators(cat: FinCat, order: Iterable[int]) -> tuple[int, ...]:
    """The arrows kept, ascending, by a walk of ``order`` that keeps an
    arrow unless it is already a composite of those kept before it.

    The composites reached so far grow by post-composition from the
    identities: a kept arrow f is pushed after each reached arrow it can
    follow, and each newly reached arrow is post-composed with every
    kept arrow out of its codomain.
    """
    table, morphisms, incoming = cat.table, cat.morphisms, cat.incoming
    reached = set(cat.identity)
    kept: list[int] = []
    kept_out: list[list[int]] = [[] for _ in cat.objects]  # by domain
    for f in order:
        if f not in reached:
            m = morphisms[f]
            kept.append(f)
            kept_out[m.dom].append(f)
            work = [table[f][r] for r in incoming[m.dom] if r in reached]
            while work:
                x = work.pop()
                if x not in reached:
                    reached.add(x)
                    work.extend(table[k][x] for k in kept_out[morphisms[x].cod])
    return tuple(sorted(kept))


@dataclass(frozen=True)
class RawCategory:
    """Parsed but unvalidated category document.

    Objects and arrows are by name.  ``morphisms`` lists identities first
    (object order, reserved names), then the declared arrows in
    declaration order.  ``composition`` is three lists of indices into
    ``morphisms``, after, before and equals, in document order.
    ``subcategory`` and ``deformation`` are the document's blocks as
    given, or None.  Where the document came from is the caller's.
    """

    objects: tuple[str, ...]
    morphisms: tuple[tuple[str, str, str], ...]     # (name, dom, cod)
    composition: tuple[list[int], list[int], list[int]]
    weak_equivalences: tuple[str, ...]
    subcategory: dict | None
    deformation: tuple[dict, ...] | None


# The top-level fields of a category document.
_FIELDS = frozenset({"objects", "morphisms", "composition", "weak_equivalences",
                     "subcategory", "deformation"})

# Characters of text after which a composition piece ends, at the next
# entry boundary; a document of at most this many is decoded whole.
CHUNK = 256 * 1024

_decoder = json.JSONDecoder()
_skip = re.compile(r"[ \t\n\r]*").match  # JSON whitespace, as the decoder skips it


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


def _unresolved(entry, pool) -> FormatError:
    """The error for a composition entry whose names did not resolve,
    checked in order: not an object, other keys than after/before/equals,
    then the first name that is not in ``pool``."""
    if not isinstance(entry, dict):
        return FormatError("composition: entries must be objects")
    if set(entry) != {"after", "before", "equals"}:
        return FormatError("composition entry needs exactly after/before/equals, got "
                           f"{sorted(entry, key=str)}")
    name = next(v for v in map(entry.__getitem__, ("after", "before", "equals"))
                if not (isinstance(v, str) and v in pool))
    return FormatError(f"composition entry references unknown morphism {name!r}")


def _resolve(entries: list, pool: dict, columns: tuple[list[int], list[int], list[int]]):
    """Append the indices in ``pool`` that each of ``entries`` names to
    the after, before and equals ``columns``, in order, up to the first
    entry that does not resolve, which is named."""
    after, before, equals = columns
    for entry in entries:
        try:  # an entry of three keys, these among them, has exactly these
            if isinstance(entry, dict) and len(entry) == 3:
                after.append(pool[entry["after"]])
                before.append(pool[entry["before"]])
                equals.append(pool[entry["equals"]])
                continue
        except (KeyError, TypeError):
            pass
        raise _unresolved(entry, pool)


def _head(document) -> tuple[list, tuple[tuple[str, str, str], ...], dict[str, int]]:
    """The checked top-level fields, objects and declared morphisms of
    ``document``: its objects, every arrow (identities first) and the
    index of each arrow's name."""
    _require(isinstance(document, dict), "document must be a JSON object")
    for key in document:
        _require(key in _FIELDS, f"unknown top-level field {key!r}")

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
            raise FormatError(f"morphism entry needs exactly name/dom/cod, got {sorted(entry, key=str)}")
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
    return objects, morphisms, {m[0]: i for i, m in enumerate(morphisms)}


def _tail(document, objects, morphisms, mor_index, columns) -> RawCategory:
    """The category of ``document``, whose head (:func:`_head`) is
    ``objects``, ``morphisms`` and ``mor_index`` and whose composition
    resolved to ``columns``, once its remaining fields pass their checks."""
    obj_set = set(objects)
    weqs = document.get("weak_equivalences", [])
    _require(isinstance(weqs, list), "weak_equivalences: list required")
    for w in weqs:
        known_name(w, mor_index, "weak_equivalences references unknown morphism")
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
                known_name(m, mor_index, f"{where} references unknown morphism")

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
            if not set(block) <= {"direction", "on_objects", "on_morphisms", "theta", "target"}:
                raise FormatError(f"deformation block has unknown fields: {sorted(block, key=str)}")
            _require(block["direction"] in DIRECTIONS, "deformation direction must be left or right")
            for field_name in ("on_objects", "theta"):
                m = block[field_name]
                _require(isinstance(m, dict), f"deformation.{field_name}: object map required")
                pool = obj_set if field_name == "on_objects" else mor_index
                for k, v in m.items():
                    known_name(k, obj_set, f"deformation.{field_name}: unknown object")
                    known_name(v, pool, f"deformation.{field_name}: unknown reference")
            _require(isinstance(block["on_morphisms"], dict), "deformation.on_morphisms: object map required")
            for k, v in block["on_morphisms"].items():
                known_name(k, mor_index, "deformation.on_morphisms: unknown morphism")
                known_name(v, mor_index, "deformation.on_morphisms: unknown morphism")
            if block.get("target") is not None:
                check_subcategory(block["target"], "deformation.target")
        deformation = tuple(deformation)

    return RawCategory(
        objects=tuple(objects),
        morphisms=morphisms,
        composition=columns,
        weak_equivalences=tuple(weqs),
        subcategory=subcat,
        deformation=deformation,
    )


def _load_document(document) -> RawCategory:
    """The category of a decoded document, checked field by field."""
    objects, morphisms, mor_index = _head(document)
    composition = document.get("composition", [])
    _require(isinstance(composition, list), "composition: list required")
    columns = [], [], []
    _resolve(composition, mor_index, columns)
    return _tail(document, objects, morphisms, mor_index, columns)


def load_spec(document) -> RawCategory:
    """Parse a category document into raw, structurally checked data.

    ``document`` is a mapping (already decoded) or JSON text, a string or
    UTF-8 bytes; text longer than :data:`CHUNK` has its composition list
    decoded a piece at a time (:func:`_load_chunked`).  The checks here
    are purely structural: field shapes, duplicate names, and dangling
    references.  Category laws are the business of
    :func:`validate_category`.
    """
    if isinstance(document, (str, bytes)):
        return _load_text(_text(document), "")
    return _load_document(document)


def _load_text(text: str, where: str) -> RawCategory:
    """The category of the JSON text ``text``; the message of a JSON
    error starts with ``where``."""
    raw = _load_chunked(text) if len(text) > CHUNK else None
    return _load_document(parse_json(text, where)) if raw is None else raw


def _load_chunked(text: str) -> RawCategory | None:
    """The category of the JSON text ``text``, read field by field with
    its composition list decoded a piece at a time; or None, and the
    whole-document path gives the answer, error messages included.

    That is the case for text that is not JSON or fails a check, a
    repeated top-level key, and a composition list that does not come
    after the objects and morphisms.  A piece ends at the first ``},``
    at or after :data:`CHUNK` characters, and its entries are resolved
    and freed before the next is decoded.  A cut inside a string, inside
    a nested value or past the end of the list leaves a piece that does
    not parse, so a piece that parses ends on an entry boundary; at the
    first that does not, the rest of the list is decoded as its tail.
    """
    try:
        document: dict = {}
        idx = _skip(text).end()
        if not text.startswith("{", idx):
            return None
        while True:
            key, idx = _decoder.raw_decode(text, _skip(text, idx + 1).end())
            idx = _skip(text, idx).end()
            if (type(key) is not str or key not in _FIELDS or key in document
                    or not text.startswith(":", idx)):
                return None
            idx = _skip(text, idx + 1).end()
            if key != "composition":
                document[key], idx = _decoder.raw_decode(text, idx)
            elif "morphisms" in document and text.startswith("[", idx):
                objects, morphisms, pool = _head(document)
                document[key] = columns = [], [], []
                idx += 1
                while (cut := text.find("},", idx + CHUNK)) >= 0:
                    try:
                        entries = json.loads("[" + text[idx:cut + 1] + "]")
                    except ValueError:
                        break  # no entry boundary: the rest is the tail
                    _resolve(entries, pool, columns)
                    del entries  # before the next piece is decoded
                    idx = cut + 2
                entries, end = _decoder.raw_decode("[" + text[idx:])
                _resolve(entries, pool, columns)
                idx += end - 1
            else:
                return None
            idx = _skip(text, idx).end()
            if not text.startswith(",", idx):
                break
        if (not text.startswith("}", idx) or _skip(text, idx + 1).end() != len(text)
                or "composition" not in document):
            return None
        return _tail(document, objects, morphisms, pool, columns)
    except (FormatError, ValueError, RecursionError):
        return None


def _text(text, where: str = "") -> str:
    """``text``, bytes decoded strictly as UTF-8, as a file is read: no
    other encoding is guessed, and a byte order mark is left for the
    parser to refuse."""
    try:
        return text.decode("utf-8") if isinstance(text, bytes) else text
    except UnicodeDecodeError as e:
        raise FormatError(f"{where}not valid JSON: {e}") from None


def parse_json(text, where: str = ""):
    """The JSON value in ``text``, a string or UTF-8 bytes.

    Text that is not JSON is malformed input, and so are bytes that are
    not UTF-8 (:func:`_text`) and text the parser cannot take: nesting
    deeper than the interpreter's recursion limit allows, or an integer
    literal longer than :func:`sys.get_int_max_str_digits`.  The message
    starts with ``where``.
    """
    try:
        return json.loads(_text(text, where))
    except json.JSONDecodeError as e:
        reason = str(e)
    except RecursionError:
        reason = "nested too deeply"
    except ValueError:  # what int() raises on too many digits
        reason = f"integer literal of more than {sys.get_int_max_str_digits()} digits"
    raise FormatError(f"{where}not valid JSON: {reason}")


def _read_text(path) -> str:
    """The text of the file at ``path``; one that cannot be read or is
    not UTF-8 is malformed input, and the message names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read {path}: {e}") from None


def read_json(path):
    """The JSON document in the file at ``path``.

    A file that cannot be read, is not UTF-8 or is not JSON is malformed
    input (see :func:`parse_json`); the message names the path.
    """
    return parse_json(_read_text(path), f"{path}: ")


def load_file(path) -> RawCategory:
    """Read and parse a category document from ``path`` (see
    :func:`load_spec`); a JSON error names the path."""
    return _load_text(_read_text(path), f"{path}: ")


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
    middle arrow in :attr:`FinCat.generators` need checking.  A
    generator g costs |out(cod g)|·|in(dom g)| cells; the gathers of
    the test also give each arrow's post-composition rank, which
    orders the walk that picks the generators, so few and cheap ones
    are checked.  Only when one fails are all triples scanned, so the
    error names the first witness in (g, f), respectively (h, g, f),
    index order.
    """
    objects = raw.objects
    obj_index = {o: i for i, o in enumerate(objects)}
    morphisms = tuple(Mor(n, obj_index[d], obj_index[c]) for n, d, c in raw.morphisms)
    n = len(morphisms)
    identity = tuple(range(len(objects)))  # listed first, in object order
    dom, cod = [m.dom for m in morphisms], [m.cod for m in morphisms]
    name = lambda i: morphisms[i].name  # for messages only

    table = [[-1] * n for _ in range(n)]
    # Identity laws fill the derivable entries first.
    for f in range(n):
        table[f][dom[f]] = f
        table[cod[f]][f] = f
    for g, f, h in zip(*raw.composition):
        if dom[g] != cod[f]:
            raise ValidationError(f"composition entry {name(g)!r} after {name(f)!r}: not composable")
        if dom[h] != dom[f] or cod[h] != cod[g]:
            raise ValidationError(
                f"composition entry {name(g)!r} after {name(f)!r} = {name(h)!r}: endpoint mismatch")
        row = table[g]
        if row[f] >= 0 and row[f] != h:
            raise ValidationError(
                f"composition entry {name(g)!r} after {name(f)!r} = {name(h)!r} contradicts "
                f"{name(row[f])!r} (identity law or duplicate entry)")
        row[f] = h

    # The laws are checked on the table form.  rows[k] is row k read at
    # each f into dom k, every cell k can follow; a one-arrow gather
    # yields a scalar, the identity's cell, which the fill always writes.
    # So a row is total exactly when its gather holds no -1.
    cat = FinCat(objects, morphisms, identity, table)
    table, incoming = cat.table, cat.incoming
    gather = [itemgetter(*arrows) for arrows in incoming]
    rows = [gather[m.dom](table[k]) for k, m in enumerate(morphisms)]
    for g, (row, m) in enumerate(zip(rows, morphisms)):
        if len(incoming[m.dom]) > 1 and -1 in row:
            f = next(f for f in incoming[m.dom] if table[g][f] < 0)
            raise ValidationError(
                f"missing composite: {m.name!r} after {morphisms[f].name!r}")

    # Associativity h∘(g∘f) = (h∘g)∘f, one (h, g) at a time over every f
    # into dom g: after(g) reads row h at each g∘f, and rows[h∘g] is the
    # right side.  A one-arrow gather yields a scalar on both sides
    # alike.  The distinct values of rows[k] are the composites k∘f, so
    # they count the post-composition ranks that order FinCat.generators.
    cat._ranks = [len(set(row)) if len(incoming[m.dom]) > 1 else 1
                  for row, m in zip(rows, morphisms)]
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
    endpoints, identities and every composable pair, pair by pair."""

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
            img = target.morphisms[target.mor(self.on_morphisms[f])]
            if img.dom != self.on_objects[m.dom] or img.cod != self.on_objects[m.cod]:
                raise ValidationError(f"functor breaks endpoints on {m.name!r}")
        for x in range(len(source.objects)):
            if self.on_morphisms[source.identity[x]] != target.identity[self.on_objects[x]]:
                raise ValidationError(
                    f"functor breaks the identity on {source.obj_name(x)!r}")
        on, table, ttable = self.on_morphisms, source.table, target.table
        for g, m in enumerate(source.morphisms):
            row, image = table[g], ttable[on[g]]
            for f in source.incoming[m.dom]:
                if on[row[f]] != image[on[f]]:
                    raise ValidationError("functor breaks composition on "
                                          f"({m.name!r}, {source.mor_name(f)!r})")

    @classmethod
    def certified(cls, source: FinCat, target: FinCat,
                  on_objects: Sequence[int], on_morphisms: Sequence[int]) -> "CatFunctor":
        """Trust the maps as a functor the caller has already checked,
        such as the projection onto a quotient by a certified congruence."""
        functor = cls.__new__(cls)
        functor.source, functor.target = source, target
        functor.on_objects, functor.on_morphisms = tuple(on_objects), tuple(on_morphisms)
        return functor

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

