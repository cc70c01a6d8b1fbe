"""Zigzags and the three moves presenting the localized category.

A zigzag is a word of forward arrows and backward weak equivalences.
Two zigzags name the same arrow of the localization exactly when a
finite sequence of three moves (and their inverses) links them: omit an
identity, compose two adjacent same-direction arrows, cancel a weak
equivalence that immediately reverses itself.

Each move is an equality in any category where the members are
invertible, so a zigzag has one value there however it is rewritten
(:func:`localized_value`).  When every member has a two-sided inverse
in the category itself, ``bounded_equiv`` first compares the two
values there: different values can never be linked, and it answers
"unknown" at once, as the search would at any budget.  Otherwise it
searches the move graph bidirectionally with a per-side raw-move
budget.  An "equivalent" verdict always carries a ``MoveTrace`` that
replays; "unknown" means the values differ or the budget ran out.
The search itself walks reduced zigzags (alternating directions, no
identity steps) connected by short macro rewrites, each accounted at
its exact raw-move cost, so budgets stay honest while the state space
stays small.  Each macro is turned back into its raw moves once, by
the engine's ``emit``, which also returns the reduced zigzag those
moves reach; the trace is the two sides' emitted moves joined at the
meeting edge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError, MoveError, ValidationError
from .fincat import FinCat, known_name, parse_json, resolve_weqs

__all__ = [
    "Zigzag", "Move", "MoveTrace", "EquivResult",
    "make_zigzag", "apply_move", "replay", "bounded_equiv",
    "reduce_backward_splits", "connect", "nonfullness_witness",
    "zigzag_to_json", "zigzag_from_json",
]

FWD, BWD = 0, 1
DIR_NAMES = ("fwd", "bwd")

OMIT = "omit-identity"
COMPOSE = "compose-same-direction"
CANCEL = "cancel-weq-pair"


def _dir(d) -> int:
    if d in (FWD, BWD):
        return d
    if d in DIR_NAMES:
        return DIR_NAMES.index(d)
    raise FormatError(f"direction must be fwd or bwd, not {d!r}")


@dataclass(frozen=True)
class Zigzag:
    """An immutable zigzag word.

    ``steps`` holds (morphism index, direction) pairs; a backward step
    traverses its morphism from cod to dom.  ``source``/``target`` are
    object indices.  Use :func:`make_zigzag` to build validated values.
    """

    source: int
    target: int
    steps: tuple[tuple[int, int], ...]

    def __len__(self):
        return len(self.steps)


def make_zigzag(cat: FinCat, weqs, start, steps) -> Zigzag:
    """Validate endpoint chaining and backward membership in W."""
    members = resolve_weqs(cat, weqs)
    at = cat.obj(start)
    source = at
    norm = []
    for entry in steps:
        m, d = entry
        m, d = cat.mor(m), _dir(d)
        if d == FWD:
            if cat.dom(m) != at:
                raise ValidationError(
                    f"zigzag breaks at {cat.mor_name(m)!r}: expected dom "
                    f"{cat.obj_name(at)!r}")
            at = cat.cod(m)
        else:
            if m not in members:
                raise ValidationError(
                    f"backward step {cat.mor_name(m)!r} is not a weak equivalence")
            if cat.cod(m) != at:
                raise ValidationError(
                    f"zigzag breaks at backward {cat.mor_name(m)!r}: expected cod "
                    f"{cat.obj_name(at)!r}")
            at = cat.dom(m)
        norm.append((m, d))
    return Zigzag(source, at, tuple(norm))


@dataclass(frozen=True)
class Move:
    """One raw move: kind, apply/unapply, position, optional payload.

    Payloads (unapply only): omit-identity (morphism, dir) inserts that
    identity step; compose-same-direction (first, second) splits the
    step at ``position`` into two steps in traversal order;
    cancel-weq-pair (w, first_dir) inserts the pair at a boundary.
    """

    kind: str
    direction: str
    position: int
    payload: tuple | None = None


@dataclass(frozen=True)
class MoveTrace:
    start: Zigzag
    end: Zigzag
    moves: tuple[Move, ...]


def apply_move(cat: FinCat, weqs, z: Zigzag, move: str, position: int,
               direction: str, payload=None) -> Zigzag:
    """Apply one move, validating applicability exactly.

    Composing two backward steps requires the composite to be a weak
    equivalence again, otherwise the output would not be a zigzag.
    """
    return _apply(cat, resolve_weqs(cat, weqs), z, move, position, direction, payload)


def _apply(cat: FinCat, members: frozenset[int], z: Zigzag, move: str, position: int,
           direction: str, payload=None) -> Zigzag:
    """:func:`apply_move` against an already resolved family."""
    steps = z.steps
    n = len(steps)
    if direction not in ("apply", "unapply"):
        raise MoveError(f"direction must be apply or unapply, not {direction!r}")

    def boundary(i: int) -> int:
        at = z.source
        for m, d in steps[:i]:
            at = cat.morphisms[m].cod if d == FWD else cat.morphisms[m].dom
        return at

    if move == OMIT:
        if direction == "apply":
            if not 0 <= position < n or steps[position][0] not in cat.identity_set:
                raise MoveError(f"no identity step at position {position}")
            out = steps[:position] + steps[position + 1:]
        else:
            if not 0 <= position <= n:
                raise MoveError(f"boundary {position} out of range")
            if payload is None:
                raise MoveError("inserting an identity needs (morphism, dir)")
            m, d = cat.mor(payload[0]), _dir(payload[1])
            if m not in cat.identity_set or cat.dom(m) != boundary(position):
                raise MoveError("inserted step must be the identity of the boundary object")
            out = steps[:position] + ((m, d),) + steps[position:]
    elif move == COMPOSE:
        if direction == "apply":
            if not 0 <= position < n - 1:
                raise MoveError(f"no adjacent pair at position {position}")
            (a, da), (b, db) = steps[position], steps[position + 1]
            if da != db:
                raise MoveError("compose needs two steps in the same direction")
            c = cat.table[b][a] if da == FWD else cat.table[a][b]
            if da == BWD and c not in members:
                raise MoveError(
                    f"composite {cat.mor_name(c)!r} of backward steps is not a weak equivalence")
            out = steps[:position] + ((c, da),) + steps[position + 2:]
        else:
            if not 0 <= position < n:
                raise MoveError(f"no step at position {position}")
            if payload is None:
                raise MoveError("splitting needs (first, second)")
            m, d = steps[position]
            first, second = cat.mor(payload[0]), cat.mor(payload[1])
            want = cat.table[second][first] if d == FWD else cat.table[first][second]
            if want != m:
                raise MoveError(
                    f"({cat.mor_name(first)!r}, {cat.mor_name(second)!r}) does not "
                    f"factor {cat.mor_name(m)!r}")
            if d == BWD and (first not in members or second not in members):
                raise MoveError("backward split factors must be weak equivalences")
            out = steps[:position] + ((first, d), (second, d)) + steps[position + 1:]
    elif move == CANCEL:
        if direction == "apply":
            if not 0 <= position < n - 1:
                raise MoveError(f"no adjacent pair at position {position}")
            (a, da), (b, db) = steps[position], steps[position + 1]
            if a != b or da == db:
                raise MoveError("cancel needs the same morphism in both directions")
            out = steps[:position] + steps[position + 2:]
        else:
            if not 0 <= position <= n:
                raise MoveError(f"boundary {position} out of range")
            if payload is None:
                raise MoveError("inserting a pair needs (w, first_dir)")
            w, fd = cat.mor(payload[0]), _dir(payload[1])
            if w not in members:
                raise MoveError(f"{cat.mor_name(w)!r} is not a weak equivalence")
            obj = boundary(position)
            need = cat.dom(w) if fd == FWD else cat.cod(w)
            if need != obj:
                raise MoveError(
                    f"pair on {cat.mor_name(w)!r} does not fit at object {cat.obj_name(obj)!r}")
            out = steps[:position] + ((w, fd), (w, 1 - fd)) + steps[position:]
    else:
        raise MoveError(f"unknown move {move!r}")
    return Zigzag(z.source, z.target, out)


def _apply_all(cat: FinCat, members: frozenset[int], z: Zigzag, moves) -> Zigzag:
    for mv in moves:
        z = _apply(cat, members, z, mv.kind, mv.position, mv.direction, mv.payload)
    return z


def replay(cat: FinCat, weqs, trace: MoveTrace) -> Zigzag:
    """Apply a trace from its start; raises MoveError if it does not replay."""
    z = _apply_all(cat, resolve_weqs(cat, weqs), trace.start, trace.moves)
    if z != trace.end:
        raise MoveError("trace does not reach its recorded end zigzag")
    return z


def _invert(before: Zigzag, mv: Move) -> Move:
    """The move undoing ``mv``, which was applied to ``before``."""
    if mv.direction == "unapply":
        return Move(mv.kind, "apply", mv.position)
    step = before.steps[mv.position]
    if mv.kind == COMPOSE:
        return Move(COMPOSE, "unapply", mv.position,
                    (step[0], before.steps[mv.position + 1][0]))
    return Move(mv.kind, "unapply", mv.position, step)


def invert_trace(cat: FinCat, weqs, trace: MoveTrace) -> MoveTrace:
    """The move-by-move inverse, replaying end back to start."""
    members = resolve_weqs(cat, weqs)
    inverted = []
    z = trace.start
    for mv in trace.moves:
        # Applying first validates the move before _invert reads its steps.
        after = _apply(cat, members, z, mv.kind, mv.position, mv.direction, mv.payload)
        inverted.append(_invert(z, mv))
        z = after
    if z != trace.end:
        raise MoveError("trace does not replay; cannot invert")
    return MoveTrace(trace.end, trace.start, tuple(reversed(inverted)))


def _turn(cat: FinCat, w: int, b: int, var: int, i: int) -> list[Move]:
    """Raw moves turning the backward step ``w`` at ``i`` into forward ``b``.

    ``var`` 0: b∘w is the identity on dom(w); ``var`` 1: w∘b is the
    identity on cod(w).  Insert that identity beside w, split it as the
    pair (w, b) or (b, w), and cancel w against itself.
    """
    if var == 0:
        return [Move(OMIT, "unapply", i + 1, (cat.identity[cat.dom(w)], FWD)),
                Move(COMPOSE, "unapply", i + 1, (w, b)),
                Move(CANCEL, "apply", i)]
    return [Move(OMIT, "unapply", i, (cat.identity[cat.cod(w)], FWD)),
            Move(COMPOSE, "unapply", i, (b, w)),
            Move(CANCEL, "apply", i + 1)]


# -- reduced-state search engine ----------------------------------------
#
# States are (start_object, encoded_steps) with steps m*2+dir, kept
# reduced: no identity steps, no adjacent same-direction steps (except a
# backward pair whose composite left W, which only happens when the
# family breaks axiom ii).  Macro successors bundle a few raw moves and
# are charged their exact raw-move count, so a path cost in the engine
# is a legal move count in the presentation.  ``emit`` turns one macro
# back into those raw moves and returns the reduced zigzag they reach.


def _memo(method):
    """Cache ``method`` on its arguments in the engine's own ``_cache``,
    which lives exactly as long as that engine and its search."""
    def cached(self, *args):
        key = (method, *args)
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = method(self, *args)
        return got
    return cached


class _Engine:
    def __init__(self, cat: FinCat, members: frozenset[int]):
        self.cat = cat
        self.members = members
        self.table = cat.table
        self.dom = tuple(m.dom for m in cat.morphisms)
        self.cod = tuple(m.cod for m in cat.morphisms)
        self.ids = cat.identity_set
        nobj = len(cat.objects)
        self.w_by_dom = tuple(
            tuple(w for w in sorted(members) if self.dom[w] == x and w not in self.ids)
            for x in range(nobj))
        self.w_by_cod = tuple(
            tuple(w for w in sorted(members) if self.cod[w] == x and w not in self.ids)
            for x in range(nobj))
        self._cache: dict = {}

    # b with b after g = m
    @_memo
    def ldiv(self, m: int, g: int) -> tuple[int, ...]:
        return tuple(b for b in self.cat.hom(self.cod[g], self.cod[m])
                     if self.table[b][g] == m)

    # a with g after a = m
    @_memo
    def rdiv(self, m: int, g: int) -> tuple[int, ...]:
        return tuple(a for a in self.cat.hom(self.dom[m], self.dom[g])
                     if self.table[g][a] == m)

    # one-sided inverses of w: (left: b∘w = id_dom, right: w∘b = id_cod)
    @_memo
    def inv(self, w: int):
        return self.cat.one_sided_inverses(w)

    # members w one-sided-inverting a forward step b: (b∘w = id, w∘b = id)
    @_memo
    def winv(self, b: int):
        left, right = self.inv(b)
        return (tuple(w for w in right if w in self.members),
                tuple(w for w in left if w in self.members))

    # nontrivial factorizations m = q after p
    @_memo
    def fact(self, m: int):
        return tuple((p, q) for p in self.cat.outgoing[self.dom[m]] if p not in self.ids
                     for q in self.ldiv(m, p) if q not in self.ids)

    # member-pair factorizations w = a after b, as (a, b)
    @_memo
    def wfact(self, w: int):
        return tuple((q, p) for p, q in self.fact(w)
                     if p in self.members and q in self.members)

    # -- reduction -------------------------------------------------------

    def reduce_plan(self, steps: tuple[int, ...]):
        """Leftmost-first plan of (move kind, position) applications to a
        reduced word."""
        plan = []
        work = list(steps)
        i = 0
        while i < len(work):
            m, d = work[i] >> 1, work[i] & 1
            if m in self.ids:
                plan.append((OMIT, i))
                del work[i]
                i = 0
                continue
            if i + 1 < len(work) and (work[i + 1] & 1) == d:
                a, b = m, work[i + 1] >> 1
                c = self.table[b][a] if d == FWD else self.table[a][b]
                if d == FWD or c in self.members:
                    plan.append((COMPOSE, i))
                    work[i] = c * 2 + d
                    del work[i + 1]
                    i = 0
                    continue
            i += 1
        return tuple(work), tuple(plan)

    def seed(self, start: int, steps: tuple[int, ...]):
        reduced, plan = self.reduce_plan(steps)
        return (start, reduced), len(plan)

    def reduce(self, z: Zigzag) -> tuple[Zigzag, list[Move]]:
        """The reduced form of ``z`` and the raw moves reaching it."""
        _, plan = self.reduce_plan(tuple(m * 2 + d for m, d in z.steps))
        moves = [Move(kind, "apply", i) for kind, i in plan]
        return _apply_all(self.cat, self.members, z, moves), moves

    # -- macro successors --------------------------------------------------

    def boundaries(self, state):
        start, steps = state
        objs = [start]
        at = start
        for e in steps:
            m, d = e >> 1, e & 1
            at = self.cod[m] if d == FWD else self.dom[m]
            objs.append(at)
        return objs

    def successors(self, state, room: int):
        """Yield (next_state, raw_move_cost, descriptor) for every macro
        whose own raw-move count fits ``room``.

        ``room`` is what the budget leaves after the cost of reaching
        ``state``.  A successor's cost is its macro's own count plus the
        moves reducing the result, never negative, so a macro larger
        than ``room`` can only give successors over the budget: skipping
        it before its word and reduction are built drops exactly the
        successors the caller would discard.  The rest come in the same
        order as with unlimited room.  Own counts: cancel and expand 1,
        absorb 2, replace and interior 3, bsplit 4.
        """
        if room < 1:
            return
        start, steps = state
        n = len(steps)
        objs = self.boundaries(state)
        table = self.table

        def finish(new_steps, core_cost, desc):
            reduced, plan = self.reduce_plan(new_steps)
            return (start, reduced), core_cost + len(plan), desc

        for i in range(n):
            e = steps[i]
            m, d = e >> 1, e & 1
            nxt = steps[i + 1] if i + 1 < n else None
            if nxt is not None and (nxt >> 1) == m and (nxt & 1) != d:
                yield finish(steps[:i] + steps[i + 2:], 1, ("cancel", i))
            if room < 2:
                continue
            if d == FWD and nxt is not None and (nxt & 1) == BWD:
                w = nxt >> 1
                for a in self.rdiv(m, w):
                    yield finish(steps[:i] + (a * 2,) + steps[i + 2:], 2,
                                 ("absorb_r", i, a))
            if d == BWD and nxt is not None and (nxt & 1) == FWD:
                f = nxt >> 1
                for b in self.ldiv(f, m):
                    yield finish(steps[:i] + (b * 2,) + steps[i + 2:], 2,
                                 ("absorb_l", i, b))
            if room < 3:
                continue
            if d == BWD:
                linv, rinv = self.inv(m)
                for var, pool in enumerate((linv, rinv)):
                    for b in pool:
                        yield finish(steps[:i] + (b * 2,) + steps[i + 1:], 3,
                                     ("replace_bf", i, b, var))
                if room < 4:
                    continue
                for a, b in self.wfact(m):
                    la, ra = self.inv(a)
                    for var, pool in enumerate((la, ra)):
                        for r in pool:
                            yield finish(
                                steps[:i] + (r * 2, b * 2 + BWD) + steps[i + 1:], 4,
                                ("bsplit", i, a, b, 0, r, var))
                    lb, rb = self.inv(b)
                    for var, pool in enumerate((lb, rb)):
                        for r in pool:
                            yield finish(
                                steps[:i] + (a * 2 + BWD, r * 2) + steps[i + 1:], 4,
                                ("bsplit", i, a, b, 1, r, var))
            else:
                wl, wr = self.winv(m)
                for var, pool in enumerate((wl, wr)):
                    for w in pool:
                        yield finish(steps[:i] + (w * 2 + BWD,) + steps[i + 1:], 3,
                                     ("replace_fb", i, w, var))
                for p, q in self.fact(m):
                    cut = self.cod[p]
                    for w in self.w_by_dom[cut]:
                        yield finish(
                            steps[:i] + (table[w][p] * 2, w * 2 + BWD, q * 2)
                            + steps[i + 1:], 3, ("interior", i, p, q, w, 0))
                    for w in self.w_by_cod[cut]:
                        yield finish(
                            steps[:i] + (p * 2, w * 2 + BWD, table[q][w] * 2)
                            + steps[i + 1:], 3, ("interior", i, p, q, w, 1))
        for i in range(n + 1):
            obj = objs[i]
            for w in self.w_by_dom[obj]:
                yield finish(steps[:i] + (w * 2, w * 2 + BWD) + steps[i:], 1,
                             ("expand", i, w, FWD))
            for w in self.w_by_cod[obj]:
                yield finish(steps[:i] + (w * 2 + BWD, w * 2) + steps[i:], 1,
                             ("expand", i, w, BWD))

    # -- raw-move emission (traces only) -----------------------------------

    def emit(self, z: Zigzag, desc) -> tuple[Zigzag, list[Move]]:
        """Raw moves realizing a macro from ``z``, reduction included, and
        the reduced zigzag they reach."""
        kind, i = desc[0], desc[1]
        if kind == "cancel":
            moves = [Move(CANCEL, "apply", i)]
        elif kind == "absorb_r":
            moves = [Move(COMPOSE, "unapply", i, (desc[2], z.steps[i + 1][0])),
                     Move(CANCEL, "apply", i + 1)]
        elif kind == "absorb_l":
            moves = [Move(COMPOSE, "unapply", i + 1, (z.steps[i][0], desc[2])),
                     Move(CANCEL, "apply", i)]
        elif kind == "replace_bf":
            moves = _turn(self.cat, z.steps[i][0], desc[2], desc[3], i)
        elif kind == "replace_fb":
            w, var = desc[2], desc[3]
            if var == 0:
                moves = [Move(CANCEL, "unapply", i, (w, BWD)),
                         Move(COMPOSE, "apply", i + 1), Move(OMIT, "apply", i + 1)]
            else:
                moves = [Move(CANCEL, "unapply", i + 1, (w, FWD)),
                         Move(COMPOSE, "apply", i), Move(OMIT, "apply", i)]
        elif kind == "expand":
            moves = [Move(CANCEL, "unapply", i, (desc[2], desc[3]))]
        elif kind == "interior":
            p, q, w, var = desc[2:]
            moves = [Move(COMPOSE, "unapply", i, (p, q))]
            if var == 0:
                moves += [Move(CANCEL, "unapply", i + 1, (w, FWD)), Move(COMPOSE, "apply", i)]
            else:
                moves += [Move(CANCEL, "unapply", i + 1, (w, BWD)),
                          Move(COMPOSE, "apply", i + 2)]
        elif kind == "bsplit":
            a, b, half, r, var = desc[2:]
            moves = [Move(COMPOSE, "unapply", i, (a, b))]
            moves += _turn(self.cat, (a, b)[half], r, var, i + half)
        else:
            raise MoveError(f"unknown macro {kind!r}")
        z, tail = self.reduce(_apply_all(self.cat, self.members, z, moves))
        return z, moves + tail


# -- values in a category where every member is invertible ------------------


def localized_value(target: FinCat, image, z: Zigzag) -> int | None:
    """The arrow of ``target`` that ``z`` names when each arrow m of its
    category goes to ``image[m]``: a forward step composes its image, a
    backward step the inverse of its image.  None when a backward
    step's image has no two-sided inverse in ``target``."""
    cur = target.identity[z.source]
    for m, d in z.steps:
        step = image[m]
        if d == BWD:
            step = target.inverse(step)
            if step is None:
                return None
        cur = target.table[step][cur]
    return cur


@dataclass(frozen=True)
class EquivResult:
    status: str                     # "equivalent" or "unknown"
    trace: MoveTrace | None

    @property
    def equivalent(self) -> bool:
        return self.status == "equivalent"


def bounded_equiv(cat: FinCat, weqs, z1: Zigzag, z2: Zigzag, budget: int = 8) -> EquivResult:
    """Bidirectional bounded search; "equivalent" verdicts carry a trace.

    When every member has a two-sided inverse in ``cat``, both zigzags
    are first valued in ``cat``.  Every move keeps that value, so when
    the values differ no budget links the zigzags and the answer is
    "unknown" at once, the search's own answer.  A one-sided inverse is
    not enough for a cancel move to hold as an equality, so a family
    with a member lacking a two-sided inverse is searched as it is.
    ``budget`` must be a nonnegative ``int``; a bool is refused too.

    States are expanded cheapest first.  A state reached at ``cost`` is
    expanded with ``room = budget - cost``, so only macros whose own
    raw-move count fits are built; a state at the budget builds none.
    This prunes only successors that would exceed the budget anyway, so
    the states visited, the meeting point and the trace are those of the
    unpruned search.  A successor whose reduction pushes it over the
    budget is still dropped here.
    """
    if isinstance(budget, bool) or not isinstance(budget, int):
        raise ValidationError(f"budget must be an integer, not {budget!r}")
    if budget < 0:
        raise ValidationError("budget must be nonnegative")
    members = resolve_weqs(cat, weqs)
    if (z1.source, z1.target) != (z2.source, z2.target):
        raise ValidationError("zigzags must share both endpoints")
    if z1 == z2:
        return EquivResult("equivalent", MoveTrace(z1, z2, ()))
    if all(cat.inverse(w) is not None for w in members):
        arrows = range(len(cat.morphisms))
        if localized_value(cat, arrows, z1) != localized_value(cat, arrows, z2):
            return EquivResult("unknown", None)
    return _search(cat, members, z1, z2, budget)


def _search(cat: FinCat, members: frozenset[int], z1: Zigzag, z2: Zigzag,
            budget: int) -> EquivResult:
    """The bounded search of :func:`bounded_equiv` on two distinct
    zigzags with the same endpoints, with no values compared first."""
    eng = _Engine(cat, members)
    # visited: state -> (side, cost, parent_state, descriptor)
    visited: dict = {}
    # buckets: cost -> states first reached at that cost, made on use so
    # memory follows the states found, not the budget.
    buckets: dict[int, list] = {}
    # meet: (state, edge_from, crossing), an edge from edge_from into the
    # other side's state with its descriptor in crossing; when the second
    # seed reduces onto the first seed's state, (state, state, ()).
    meet = None
    for side, z in enumerate((z1, z2)):
        state, cost = eng.seed(z.source, tuple(m * 2 + d for m, d in z.steps))
        if cost > budget:
            continue
        other = visited.get(state)
        if other is not None and other[0] != side:
            meet = (state, state, ())
            break
        visited[state] = (side, cost, None, None)
        buckets.setdefault(cost, []).append((state, side))
    while buckets and not meet:
        cost = min(buckets)
        for state, side in buckets.pop(cost):
            for nstate, mc, desc in eng.successors(state, budget - cost):
                nc = cost + mc
                if nc > budget:
                    continue
                seen = visited.get(nstate)
                if seen is None:
                    visited[nstate] = (side, nc, state, desc)
                    buckets.setdefault(nc, []).append((nstate, side))
                elif seen[0] != side:
                    # Edge from `state` on this side into the other
                    # side's territory at `nstate`.
                    meet = (nstate, state, (desc,))
                    break
            if meet:
                break
    if meet is None:
        return EquivResult("unknown", None)
    return EquivResult("equivalent", _build_trace(eng, z1, z2, visited, meet))


def _side_moves(eng: _Engine, seed: Zigzag, visited, state, crossing) -> tuple[Zigzag, list[Move]]:
    """Replay seed -> state, then the ``crossing`` macros; the end
    zigzag and its raw moves."""
    chain = list(crossing)
    while visited[state][2] is not None:
        chain.append(visited[state][3])
        state = visited[state][2]
    z, moves = eng.reduce(seed)
    for desc in reversed(chain):
        z, emitted = eng.emit(z, desc)
        moves += emitted
    return z, moves


def _build_trace(eng: _Engine, z1: Zigzag, z2: Zigzag, visited, meet) -> MoveTrace:
    """Each side replays to its own end of the meeting edge and the side
    the edge starts from crosses it; the second side's moves are then
    inverted onto the first's."""
    state, edge_from, crossing = meet
    owner = visited[state][0]
    ends = {owner: (state, ()), 1 - owner: (edge_from, crossing)}
    (za, moves_a), (zb, moves_b) = (
        _side_moves(eng, z, visited, *ends[side]) for side, z in enumerate((z1, z2)))
    if za != zb:
        raise MoveError("bidirectional search met at inconsistent states")
    back = invert_trace(eng.cat, eng.members, MoveTrace(z2, zb, tuple(moves_b)))
    trace = MoveTrace(z1, z2, tuple(moves_a) + back.moves)
    replay(eng.cat, eng.members, trace)
    return trace


# -- length-one reduction under a split certificate -----------------------


def reduce_backward_splits(cat: FinCat, weqs, splits, z: Zigzag) -> MoveTrace:
    """Rewrite every backward step away, down to at most one forward arrow;
    the replayed trace of the moves, whose ``end`` is the reduced zigzag.

    Each backward member first expands into its certified split
    factorization; a backward section s then turns into its forward
    retraction (insert the identity, split it as r∘s, cancel), and dually
    for retractions.  Composing the remaining forward run finishes.
    """
    members = resolve_weqs(cat, weqs)
    partner = {}
    for m, inv, kind in splits.split_weqs:
        if m not in partner:
            partner[m] = (inv, kind)
    moves: list[Move] = []
    cur = z

    def push(*pushed: Move):
        nonlocal cur
        cur = _apply_all(cat, members, cur, pushed)
        moves.extend(pushed)

    # Expand non-split backward members via certificate decompositions.
    i = 0
    while i < len(cur.steps):
        m, d = cur.steps[i]
        if d != BWD or m in cat.identity_set or m in partner:
            i += 1
            continue
        deco = splits.decompositions.get(m)
        if deco is None or len(deco) < 2:
            raise ValidationError(
                f"no split decomposition recorded for {cat.mor_name(m)!r}")
        # Peel the first-applied factor off at each stage: m = rest∘first.
        rest = list(deco)
        while len(rest) > 1:
            first = rest[0]
            rest = rest[1:]
            acc = rest[0]
            for f in rest[1:]:
                acc = cat.table[f][acc]
            push(Move(COMPOSE, "unapply", i, (acc, first)))
        i += len(deco)
    # Replace each backward split by its forward partner; drop backward ids.
    i = 0
    while i < len(cur.steps):
        m, d = cur.steps[i]
        if d != BWD:
            i += 1
            continue
        if m in cat.identity_set:
            push(Move(OMIT, "apply", i))
            continue
        # A section s (r∘s = id on dom s) turns into its retraction r, a
        # retraction r (r∘s = id on cod r) into its section s.
        inv, kind = partner[m]
        push(*_turn(cat, m, inv, 0 if kind == "section" else 1, i))
        i += 1
    # All steps are forward now; fold them into one arrow.
    while len(cur.steps) > 1:
        push(Move(COMPOSE, "apply", 0))
    if len(cur.steps) == 1 and cur.steps[0][0] in cat.identity_set:
        push(Move(OMIT, "apply", 0))
    trace = MoveTrace(z, cur, tuple(moves))
    replay(cat, members, trace)
    return trace


# -- non-fullness ---------------------------------------------------------


def _paths(cat: FinCat, members: frozenset[int], x: int) -> dict:
    """Breadth-first search from ``x`` over forward arrows, then
    backward members: maps each object reached to the steps of the
    first shortest zigzag found to it."""
    paths = {x: ()}
    frontier = [x]
    while frontier:
        nxt = []
        for at in frontier:
            for m in cat.outgoing[at]:
                if cat.cod(m) not in paths:
                    paths[cat.cod(m)] = paths[at] + ((m, FWD),)
                    nxt.append(cat.cod(m))
            for m in cat.incoming[at]:
                if m in members and cat.dom(m) not in paths:
                    paths[cat.dom(m)] = paths[at] + ((m, BWD),)
                    nxt.append(cat.dom(m))
        frontier = nxt
    return paths


def connect(cat: FinCat, weqs, source, target) -> Zigzag | None:
    """A shortest zigzag from ``source`` to ``target``, or None."""
    x, y = cat.obj(source), cat.obj(target)
    steps = _paths(cat, resolve_weqs(cat, weqs), x).get(y)
    return None if steps is None else Zigzag(x, y, steps)


def nonfullness_witness(cat: FinCat, weqs) -> Zigzag | None:
    """A zigzag between objects with an empty hom-set: the first
    (source, target) pair in index order, or None.

    Any localization functor image of the zigzag would need a preimage
    arrow; there is none, so no congruence quotient can be the
    localization.
    """
    members = resolve_weqs(cat, weqs)
    nobj = len(cat.objects)
    for x in range(nobj):
        paths = _paths(cat, members, x)
        for y in range(nobj):
            if y in paths and not cat.hom(x, y):
                return Zigzag(x, y, paths[y])
    return None


# -- serialization ---------------------------------------------------------


def zigzag_to_json(cat: FinCat, z: Zigzag) -> dict:
    return {
        "source": cat.obj_name(z.source),
        "target": cat.obj_name(z.target),
        "steps": [[cat.mor_name(m), DIR_NAMES[d]] for m, d in z.steps],
    }


def zigzag_from_json(cat: FinCat, weqs, document) -> Zigzag:
    """Read a zigzag from a mapping or JSON text, str or UTF-8 bytes: {"start", "steps"}.

    The document holds exactly those two fields.  Objects, arrows and
    directions are given by name only.
    """
    if isinstance(document, (str, bytes)):
        document = parse_json(document)
    if isinstance(document, dict):
        for key in document:
            if key not in ("start", "steps"):
                raise FormatError(f"zigzag document: unknown field {key!r}")
    if not isinstance(document, dict) or document.keys() != {"start", "steps"}:
        raise FormatError('zigzag document needs "start" and "steps"')
    start = known_name(document["start"], cat.objects, "zigzag start: unknown object")
    steps = document["steps"]
    if not isinstance(steps, list):
        raise FormatError("zigzag steps: list required")
    names = {m.name for m in cat.morphisms}
    parsed = []
    for entry in steps:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise FormatError("zigzag step must be [morphism, direction]")
        name, direction = entry
        parsed.append((known_name(name, names, "zigzag step: unknown morphism"),
                       known_name(direction, DIR_NAMES, "zigzag step: unknown direction")))
    return make_zigzag(cat, weqs, start, parsed)


def move_to_json(cat: FinCat, mv: Move) -> dict:
    doc = {"move": mv.kind, "direction": mv.direction, "position": mv.position}
    if mv.payload is not None:
        first, second = mv.payload
        second = cat.mor_name(second) if mv.kind == COMPOSE else DIR_NAMES[second]
        doc["payload"] = [cat.mor_name(first), second]
    return doc


def trace_to_json(cat: FinCat, trace: MoveTrace) -> dict:
    return {
        "start": zigzag_to_json(cat, trace.start),
        "end": zigzag_to_json(cat, trace.end),
        "moves": [move_to_json(cat, mv) for mv in trace.moves],
    }
