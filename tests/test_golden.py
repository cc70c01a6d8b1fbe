"""The JSON reports and zigzag move traces stay byte-identical.

Each ``tests/golden/CMD-FIXTURE.json`` is the output of
``hocat CMD FIXTURE.json --format json`` run from the fixture directory,
so the ``input`` field reads the bare file name.  To regenerate one after
an intended change of output, run that command there and redirect it to
``tests/golden/CMD-FIXTURE.json``.

``tests/golden/zigzag-traces.json`` holds the ``trace_to_json`` of
``bounded_equiv`` and ``reduce_backward_splits`` on the queries listed
by :func:`zigzag_traces`; every macro rewrite of the search appears in
at least one of them.  To regenerate it after an intended change of the
traces, run ``PYTHONPATH=src python tests/test_golden.py`` from the
repository root.
"""

import json
import pathlib
import random

import pytest
from gencat import gen_split_instance

from hocat import (bounded_equiv, cli, check_split_generated, check_weq_axioms,
                   make_zigzag, reduce_backward_splits)
from hocat.fixtures import NAMES, category, path
from hocat.zigzag import BWD, FWD, trace_to_json

GOLDEN = pathlib.Path(__file__).parent / "golden"
COMMANDS = ("analyze", "quotient", "deform")
TRACES = GOLDEN / "zigzag-traces.json"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", NAMES)
def test_json_output_matches_golden(command, name, monkeypatch, capsys):
    monkeypatch.chdir(pathlib.Path(str(path(name))).parent)
    assert cli.main([command, f"{name}.json", "--format", "json"]) == 0
    got = capsys.readouterr().out
    assert got == (GOLDEN / f"{command}-{name}.json").read_text(encoding="utf-8")


def _label(cat, steps) -> str:
    return " ".join(cat.mor_name(m) + ("^-1" if d == BWD else "") for m, d in steps)


def _queries(cat, members, two_step):
    """Parallel single-arrow pairs, then w^-1.f and f.w^-1 against each arrow."""
    for f, g in cat.parallel_pairs():
        yield ((f, FWD),), g
    if not two_step:
        return
    for w in sorted(members - cat.identity_set):
        for f in cat.outgoing[cat.dom(w)]:
            for g in cat.hom(cat.cod(w), cat.cod(f)):
                yield ((w, BWD), (f, FWD)), g
        for f in cat.incoming[cat.cod(w)]:
            for g in cat.hom(cat.dom(f), cat.dom(w)):
                yield ((f, FWD), (w, BWD)), g


def _traces(out, tag, cat, members, budget, two_step):
    for steps, g in _queries(cat, members, two_step):
        z1 = make_zigzag(cat, members, cat.dom(g), steps)
        z2 = make_zigzag(cat, members, cat.dom(g), [(g, FWD)])
        res = bounded_equiv(cat, members, z1, z2, budget)
        key = f"{tag} equiv {_label(cat, steps)} ~ {cat.mor_name(g)}"
        out[key] = trace_to_json(cat, res.trace) if res.trace is not None else None
    splitgen = check_split_generated(check_weq_axioms(cat, members))
    if not splitgen.generated:
        return
    for w in sorted(members - cat.identity_set):
        z = make_zigzag(cat, members, cat.cod(w), [(w, BWD)])
        res = reduce_backward_splits(cat, members, splitgen.certificate, z)
        out[f"{tag} reduce {_label(cat, z.steps)}"] = trace_to_json(cat, res.trace)


def zigzag_traces() -> dict:
    """Traces on every fixture at budget 8 and 30 split instances at budget 4.

    The split instances are the first 30 of the ``split_corpus`` fixture
    (seed 90210), generated here again so the file can be rebuilt apart
    from pytest.
    """
    out: dict = {}
    for name in NAMES:
        cat, members, _raw = category(name)
        _traces(out, name, cat, members, 8, two_step=True)
    rng = random.Random(90210)
    for k in range(30):
        cat, members, _doc = gen_split_instance(rng)
        _traces(out, f"split{k}", cat, members, 4, two_step=True)
    return out


def _render(traces: dict) -> str:
    """One query per line, so a changed trace shows as one changed line."""
    rows = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in sorted(traces.items()))
    return "{\n" + ",\n".join(rows) + "\n}\n"


def test_zigzag_traces_match_golden():
    assert _render(zigzag_traces()) == TRACES.read_text(encoding="utf-8")


if __name__ == "__main__":
    TRACES.write_text(_render(zigzag_traces()), encoding="utf-8")
