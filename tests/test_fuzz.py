"""Seeded mutation fuzzing of the input boundary.

Every fixture and a few zigzag documents over the retract are mutated
at a random place in their JSON tree: a value swapped for one of another
type, an entry deleted, an entry duplicated, a value made huge, or a
value replaced by another name from the same document.  Each
mutant goes through ``cli.main`` for ``analyze``, ``deform``,
``zigzag --from/--to`` and ``zigzag --equiv``.  Whatever the input, the
command must answer with exit 0 (accepted), 2 (malformed) or 3 (invalid),
never with an exception.
"""

import copy
import json
import random

from hocat import cli
from hocat.fixtures import NAMES, path

SEED = 20181
ROUNDS = 120  # mutants per base document

ZIGZAGS = [  # over f_retr
    {"start": "b", "steps": []},
    {"start": "b", "steps": [["e", "fwd"]]},
    {"start": "a", "steps": [["s", "fwd"], ["r", "fwd"]]},
    {"start": "b", "steps": [["s", "bwd"], ["s", "fwd"], ["e", "bwd"]]},
]

HUGE = [10**30, -10**30, 1e308, "x" * 5000, ["a"] * 500, {"k%d" % i: i for i in range(300)}]
OTHER = [None, True, 0, -1, 1.5, "", "a", "id:a", [], {}, [[]], {"name": "s"}]


def _places(node):
    """Every (container, key) in the tree, in document order."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from _places(value)


def mutate(doc, rng):
    """A mutated deep copy of ``doc`` and a word on what changed."""
    doc = copy.deepcopy(doc)
    places = list(_places(doc))
    if not places:
        return rng.choice(OTHER + HUGE), "root replaced"
    holder, key = rng.choice(places)
    kind = rng.choice(("swap", "delete", "duplicate", "huge", "rename"))
    if kind == "swap":
        holder[key] = copy.deepcopy(rng.choice([v for v in OTHER
                                                if type(v) is not type(holder[key])]))
    elif kind == "delete":
        del holder[key]
    elif kind == "duplicate":
        if isinstance(holder, list):
            holder.insert(key, copy.deepcopy(holder[key]))
        else:  # into a sibling field
            holder[rng.choice(list(holder))] = copy.deepcopy(holder[key])
    elif kind == "huge":
        holder[key] = copy.deepcopy(rng.choice(HUGE))
    else:  # another name from the same document in this place
        names = [h[k] for h, k in places if isinstance(h[k], str)]
        holder[key] = rng.choice(names) if names else "?"
    return doc, f"{kind} at {key!r}"


def _run(argv, capsys, what):
    try:
        code = cli.main(argv)
    except Exception as e:  # the property under test: nothing escapes
        raise AssertionError(f"{what}: {argv[0]} raised {e!r}") from e
    capsys.readouterr()
    assert code in (0, 2, 3), (what, argv, code)


def test_mutated_documents_exit_cleanly(tmp_path, capsys):
    rng = random.Random(SEED)
    cat_file, z1, z2 = tmp_path / "category.json", tmp_path / "z1.json", tmp_path / "z2.json"
    budget = ["--budget", "2", "--format", "json"]
    z1.write_text(json.dumps(ZIGZAGS[1]))
    z2.write_text(json.dumps(ZIGZAGS[2]))
    for name in NAMES:
        base = json.loads(path(name).read_text())
        ends = base["objects"][0], base["objects"][-1]
        for k in range(ROUNDS):
            doc, how = mutate(base, rng)
            what = f"{name} #{k}: {how}"
            cat_file.write_text(json.dumps(doc))
            for command in ("analyze", "deform"):
                _run([command, str(cat_file), *budget], capsys, what)
            _run(["zigzag", str(cat_file), "--from", ends[0], "--to", ends[1], *budget],
                 capsys, what)
            _run(["zigzag", str(cat_file), "--equiv", str(z1), str(z2), *budget],
                 capsys, what)
    cat_file.write_text(path("f_retr").read_text())
    for i, base in enumerate(ZIGZAGS):
        for k in range(ROUNDS):
            doc, how = mutate(base, rng)
            z1.write_text(json.dumps(doc))
            z2.write_text(json.dumps(rng.choice(ZIGZAGS)))
            _run(["zigzag", str(cat_file), "--equiv", str(z1), str(z2), *budget],
                 capsys, f"zigzag {i} #{k}: {how}")
