"""The JSON reports and zigzag move traces stay byte-identical.

Each ``tests/golden/CMD-FIXTURE.json`` is the output of
``hocat CMD FIXTURE.json --format json`` run from the fixture directory,
so the ``input`` field reads the bare file name.  To regenerate one after
an intended change of output, run that command there and redirect it to
``tests/golden/CMD-FIXTURE.json``.

``tests/golden/zigzag-traces.json`` holds the ``trace_to_json`` of
``bounded_equiv`` and ``reduce_backward_splits`` on the queries listed
by :func:`zigzag_traces`; every macro rewrite of the search appears in
at least one of them.

``tests/golden/fork-witnesses.json`` holds, for each side of every
fixture and of the first 40 instances of the seeded split and mixed
corpora, the fork condition (verdict and counterexample), every witness
of ``Analysis.fork_witnesses`` with its fork and mediator, the
common-fork verdict with its counterexample and the transitivity
verdict with its triple.  It also
holds the sha256 of that report for each side of the 56-arrow category
of all functions between sets of sizes 1, 2 and 3, with W every arrow
and with W the bijections.

``tests/golden/analyze-fun1234-sha256.json`` holds the sha256 of
``hocat analyze FILE --format json`` on the 494-arrow category of all
functions between sets of sizes 1, 2, 3 and 4, with W every arrow and
with W the bijections, the document named ``fun1234-WEQS.json``.

``tests/golden/text-reports.json`` holds, for every fixture and for
``gencat.inconclusive_doc`` (written to ``inconclusive.json`` in a
temporary directory), the stdout of ``analyze``, ``quotient``,
``deform`` and ``zigzag --from FIRST --to LAST`` with ``--format
text``, run from the directory that holds the document, with the
analyze timings masked as ``[x.y ms]``.

To regenerate these four files after an intended change, run
``PYTHONPATH=src python3 tests/test_golden.py`` from the repository
root.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import re
import tempfile

import pytest
from gencat import (all_functions_instance, gen_any_instance, gen_split_instance,
                    inconclusive_doc)
from oracles import parallel_pairs

from hocat import (Analysis, bounded_equiv, cli, check_split_generated, check_weq_axioms,
                   make_zigzag, reduce_backward_splits)
from hocat import homotopy
from hocat.fixtures import NAMES, category, path
from hocat.zigzag import BWD, FWD, trace_to_json

GOLDEN = pathlib.Path(__file__).parent / "golden"
COMMANDS = ("analyze", "quotient", "deform")
TRACES = GOLDEN / "zigzag-traces.json"
FORKS = GOLDEN / "fork-witnesses.json"
ANALYZE_494 = GOLDEN / "analyze-fun1234-sha256.json"
TEXT_REPORTS = GOLDEN / "text-reports.json"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", NAMES)
def test_json_output_matches_golden(command, name, monkeypatch, capsys):
    monkeypatch.chdir(pathlib.Path(str(path(name))).parent)
    assert cli.main([command, f"{name}.json", "--format", "json"]) == 0
    got = capsys.readouterr().out
    assert got == (GOLDEN / f"{command}-{name}.json").read_text(encoding="utf-8")


WRAPPERS = ("homotopy_congruence", "certify_whitehead", "check_saturation", "r_right",
            "r_left_comp", "r_right_comp", "check_fork_condition", "check_common_fork",
            "check_rc_transitive")


def test_commands_call_no_homotopy_wrapper(monkeypatch, capsys):
    """The commands read their own session: none calls a function of
    ``hocat.homotopy`` that reads a fresh one, and every report is the
    golden one."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("a command called a homotopy wrapper")

    for name in WRAPPERS:
        monkeypatch.setattr(homotopy, name, refuse)
    for name in NAMES:
        monkeypatch.chdir(pathlib.Path(str(path(name))).parent)
        for command in COMMANDS:
            assert cli.main([command, f"{name}.json", "--format", "json"]) == 0, (command, name)
            got = capsys.readouterr().out
            assert got == (GOLDEN / f"{command}-{name}.json").read_text(encoding="utf-8")


def _label(cat, steps) -> str:
    return " ".join(cat.mor_name(m) + ("^-1" if d == BWD else "") for m, d in steps)


def _queries(cat, members, two_step):
    """Parallel single-arrow pairs, then w^-1.f and f.w^-1 against each arrow."""
    for f, g in parallel_pairs(cat):
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
        trace = reduce_backward_splits(cat, members, splitgen.certificate, z)
        out[f"{tag} reduce {_label(cat, z.steps)}"] = trace_to_json(cat, trace)


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


def _fork_report(cat, session, side) -> dict:
    mor = cat.mor_name

    def pair(p):
        return None if p is None else [mor(p[0]), mor(p[1])]

    def witness(w):
        fork = w.fork
        return {"side": w.side, "f": mor(w.f), "g": mor(w.g),
                "fork": {"side": fork.side, "vertex": cat.obj_name(fork.vertex),
                         "apex": cat.obj_name(fork.apex), "legs": pair(fork.legs),
                         "collapse": mor(fork.collapse), "base": mor(fork.base)},
                "mediator": None if w.mediator is None else mor(w.mediator)}

    cond = session.fork_condition(side)
    witnesses = session.fork_witnesses(side)
    common = session.common_fork(side)
    transitive, triple = session.rc_transitive(side)
    return {
        "fork_condition": {
            "ok": cond.ok, "counterexample": pair(cond.counterexample),
            "witnesses": [[pair(p), witness(w)] for p, w in witnesses.items()]},
        "common_fork": {
            "ok": common.ok,
            "counterexample": None if common.counterexample is None
            else [pair(p) for p in common.counterexample]},
        "rc_transitive": {
            "ok": transitive,
            "triple": None if triple is None else [mor(m) for m in triple]},
    }


def fork_witnesses() -> dict:
    """Both fork checks and transitivity, per side, on every fixture and
    on the first 40 instances of the ``split_corpus`` (seed 90210) and
    ``mixed_corpus`` (seed 31337) fixtures, generated here again as in
    :func:`zigzag_traces`; for the two 56-arrow instances, the sha256 of
    each side's report."""
    instances = [(name, *category(name)[:2]) for name in NAMES]
    for tag, seed, gen in (("split", 90210, gen_split_instance),
                           ("mixed", 31337, gen_any_instance)):
        rng = random.Random(seed)
        for k in range(40):
            cat, members, _doc = gen(rng)
            instances.append((f"{tag}{k}", cat, members))
    out: dict = {}
    for tag, cat, members in instances:
        session = Analysis(cat, members)
        for side in ("left", "right"):
            out[f"{tag} {side}"] = _fork_report(cat, session, side)
    for weqs in ("all", "bijections"):
        cat, members, _doc = all_functions_instance((1, 2, 3), weqs)
        session = Analysis(cat, members)
        for side in ("left", "right"):
            report = json.dumps(_fork_report(cat, session, side), sort_keys=True)
            out[f"fun123-{weqs} {side}"] = {
                "sha256": hashlib.sha256(report.encode("utf-8")).hexdigest()}
    return out


def test_fork_witnesses_match_golden():
    assert _render(fork_witnesses()) == FORKS.read_text(encoding="utf-8")


def _stdout(argv) -> str:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(argv) == 0, argv
    return text.getvalue()


def analyze_494_hashes() -> dict:
    """The sha256 of ``analyze --format json`` on all functions between
    sets of sizes 1, 2, 3 and 4 (494 arrows), per family, each run from
    the directory that holds the document."""
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        try:
            os.chdir(workdir)
            for weqs in ("all", "bijections"):
                name = f"fun1234-{weqs}.json"
                with open(name, "w", encoding="utf-8") as fh:
                    json.dump(all_functions_instance((1, 2, 3, 4), weqs)[2], fh)
                text = _stdout(["analyze", name, "--format", "json"])
                out[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        finally:
            os.chdir(cwd)
    return out


def test_analyze_494_matches_golden():
    assert _render(analyze_494_hashes()) == ANALYZE_494.read_text(encoding="utf-8")


def text_reports() -> dict:
    """Each input's text reports: analyze (timings masked), quotient,
    deform, and zigzag from its first object to its last."""
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        with open(os.path.join(workdir, "inconclusive.json"), "w", encoding="utf-8") as fh:
            json.dump(inconclusive_doc(), fh)
        inputs = [(name, pathlib.Path(str(path(name))).parent) for name in NAMES]
        try:
            for name, directory in [*inputs, ("inconclusive", workdir)]:
                os.chdir(directory)
                file = f"{name}.json"
                with open(file, encoding="utf-8") as fh:
                    objects = json.load(fh)["objects"]
                entry = {command: _stdout([command, file, "--format", "text"])
                         for command in COMMANDS}
                entry["analyze"] = re.sub(r"\[\d+\.\d ms\]", "[x.y ms]", entry["analyze"])
                entry["zigzag"] = _stdout(["zigzag", file, "--from", objects[0],
                                           "--to", objects[-1], "--format", "text"])
                out[name] = entry
        finally:
            os.chdir(cwd)
    return out


def test_text_reports_match_golden():
    assert _render(text_reports()) == TEXT_REPORTS.read_text(encoding="utf-8")


if __name__ == "__main__":
    TRACES.write_text(_render(zigzag_traces()), encoding="utf-8")
    FORKS.write_text(_render(fork_witnesses()), encoding="utf-8")
    ANALYZE_494.write_text(_render(analyze_494_hashes()), encoding="utf-8")
    TEXT_REPORTS.write_text(_render(text_reports()), encoding="utf-8")
