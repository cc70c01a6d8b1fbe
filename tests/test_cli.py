import collections
import functools
import importlib.util
import json
import os
import pathlib
import pkgutil
import random
import re
import subprocess
import sys
import time

import pytest

from gencat import all_functions_instance

import hocat
from hocat import cli, congruence, fincat, homotopy
from hocat.errors import FormatError
from hocat.fixtures import NAMES, path


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("HOCAT_BUDGET", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hocat", *argv],
        capture_output=True, text=True, env=env, timeout=120)


def fx(name):
    return str(path(name))


def test_analyze_exits_zero_on_every_fixture():
    for name in NAMES:
        proc = run_cli("analyze", fx(name), "--format", "json")
        assert proc.returncode == 0, (name, proc.stderr)
        json.loads(proc.stdout)


def test_analyze_json_is_byte_stable():
    a = run_cli("analyze", fx("f_retr"), "--format", "json")
    b = run_cli("analyze", fx("f_retr"), "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_analyze_retract_report_content():
    proc = run_cli("analyze", fx("f_retr"), "--format", "json")
    assert '"whitehead": "certified"' in proc.stdout
    doc = json.loads(proc.stdout)
    assert doc["saturation"]["saturated"] is True
    assert ["id:b", "e"] in doc["homotopy"]["nonsingleton_classes"]


def test_analyze_z2_reports_unsaturated():
    proc = run_cli("analyze", fx("f_z2"), "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["saturation"]["saturated"] is False
    assert doc["saturation"]["violations"] == ["t"]


def test_analyze_text_format():
    proc = run_cli("analyze", fx("f_retr"))
    assert proc.returncode == 0
    assert "whitehead: certified" in proc.stdout


def test_analyze_stage_selection(tmp_path):
    proc = run_cli("analyze", fx("f_retr"), "--format", "json",
                   "--stages", "homotopy")
    doc = json.loads(proc.stdout)
    assert doc["homotopy"] != "skipped"
    assert doc["saturation"] == "skipped"
    assert doc["whitehead"] == "skipped"
    bad = run_cli("analyze", fx("f_retr"), "--stages", "nonsense")
    assert bad.returncode == 2
    assert "nonsense" in bad.stderr


def test_stages_naming_no_stage_exit_2(capsys):
    """--stages with no stage named in it is refused, not read as every
    stage or as none."""
    for spec in ("", ",", " , "):
        assert cli.main(["analyze", fx("f_retr"), "--stages", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --stages names no stage; stages are validate, axioms, splits,"
            " homotopy, whitehead, forks, saturation, deformation\n")


def test_budget_env_override():
    proc = run_cli("analyze", fx("f_retr"), "--format", "json",
                   env_extra={"HOCAT_BUDGET": "3"})
    assert json.loads(proc.stdout)["budget"] == 3
    flag = run_cli("analyze", fx("f_retr"), "--format", "json", "--budget", "5",
                   env_extra={"HOCAT_BUDGET": "3"})
    assert json.loads(flag.stdout)["budget"] == 5
    bad = run_cli("analyze", fx("f_retr"), env_extra={"HOCAT_BUDGET": "banana"})
    assert bad.returncode == 2
    assert "HOCAT_BUDGET" in bad.stderr


def test_error_exit_codes(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    proc = run_cli("analyze", str(broken))
    assert proc.returncode == 2
    assert str(broken) in proc.stderr
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"objects": ["\xe9"]}')
    assert run_cli("analyze", str(latin)).returncode == 2
    good = tmp_path / "good.zz"
    good.write_text(json.dumps({"start": "b", "steps": []}))
    for zz in (tmp_path / "missing.zz", broken):
        proc = run_cli("zigzag", fx("f_retr"), "--equiv", str(good), str(zz))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and str(zz) in proc.stderr

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({
        "objects": ["a"],
        "morphisms": [{"name": "f", "dom": "a", "cod": "a"}],
        "composition": [],
        "weak_equivalences": [],
    }))
    proc = run_cli("analyze", str(invalid))
    assert proc.returncode == 3
    assert "error:" in proc.stderr


@pytest.mark.parametrize("text, reason", [
    ('{"objects": ' + "[" * 5000 + "]" * 5000 + "}", "nested too deeply"),
    ('{"start": ' + "7" * 4301 + "}", "integer literal of more than 4300 digits"),
], ids=["deep", "long-integer"])
def test_unparsable_json_exits_2(tmp_path, capsys, text, reason):
    """A category document or zigzag file nested past the recursion
    limit, or with an integer literal past the digit limit, exits 2
    with a message naming the file, and no traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    good = tmp_path / "good.zz"
    good.write_text(json.dumps({"start": "b", "steps": []}))
    for argv in (["analyze", str(bad)],
                 ["zigzag", fx("f_retr"), "--equiv", str(good), str(bad)]):
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {bad}: not valid JSON: {reason}\n")


def test_object_name_with_hom_key_separator_is_malformed(tmp_path, capsys):
    """Hom-sets are reported under "x>y" keys; with ">" in object names,
    a>b -> c and a -> b>c would share the key "a>b>c"."""
    file = tmp_path / "category.json"
    file.write_text(json.dumps({
        "objects": ["a>b", "c", "a", "b>c"],
        "morphisms": [{"name": "f", "dom": "a>b", "cod": "c"},
                      {"name": "g", "dom": "a", "cod": "b>c"}],
        "composition": [],
        "weak_equivalences": [],
    }))
    assert cli.main(["quotient", str(file), "--format", "json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'a>b'" in err and "Traceback" not in err


def test_quotient_subcommand():
    proc = run_cli("quotient", fx("f_retr"), "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["whitehead"] == "certified"
    assert doc["quotient"]["morphisms"] == 4
    assert doc["quotient"]["homs"]["b>b"] == ["[id:b]"]


def test_zigzag_connect_and_unreachable():
    proc = run_cli("zigzag", fx("f_span"), "--from", "a", "--to", "b",
                   "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["status"] == "connected"
    assert doc["zigzag"]["steps"] == [["f", "bwd"], ["g", "fwd"]]
    back = run_cli("zigzag", fx("f_span"), "--from", "b", "--to", "a",
                   "--format", "json")
    assert json.loads(back.stdout)["status"] == "unreachable"
    bare = run_cli("zigzag", fx("f_span"))
    assert bare.returncode == 2
    same = run_cli("zigzag", fx("f_span"), "--from", "c", "--to", "c",
                   "--format", "json")
    assert json.loads(same.stdout)["zigzag"]["steps"] == []
    # x1 reaches x0 only backward along the weak equivalence theta: x0 -> x1
    inverse = run_cli("zigzag", fx("f_def"), "--from", "x1", "--to", "x0",
                      "--format", "json")
    assert json.loads(inverse.stdout)["zigzag"] == {
        "source": "x1", "target": "x0", "steps": [["theta", "bwd"]]}


@pytest.mark.parametrize("flag", ["--from", "--to"])
def test_zigzag_unknown_endpoint_is_malformed(capsys, flag):
    ends = {"--from": "a", "--to": "b", flag: "zz"}
    assert cli.main(["zigzag", fx("f_span"), *(w for kv in ends.items() for w in kv)]) == 2
    assert capsys.readouterr().err == f"error: {flag}: unknown object 'zz'\n"


def test_zigzag_equiv_flow(tmp_path):
    z1 = tmp_path / "one.zz"
    z2 = tmp_path / "two.zz"
    z1.write_text(json.dumps({"start": "b", "steps": [["e", "fwd"]]}))
    z2.write_text(json.dumps({"start": "b", "steps": [["id:b", "fwd"]]}))
    proc = run_cli("zigzag", fx("f_retr"), "--equiv", str(z1), str(z2),
                   "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["status"] == "equivalent"
    assert doc["trace"]["moves"]
    starved = run_cli("zigzag", fx("f_retr"), "--equiv", str(z1), str(z2),
                      "--budget", "0", "--format", "json")
    sdoc = json.loads(starved.stdout)
    assert sdoc["status"] == "unknown"
    assert sdoc["trace"] is None


def test_zigzag_file_with_misspelled_steps_exits_2(tmp_path, capsys):
    """A zigzag file whose steps field is misspelled is malformed, not
    the empty zigzag at its start."""
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    t1.write_text(json.dumps({"start": "a", "step": [["s", "fwd"]]}))
    t2.write_text(json.dumps({"start": "a", "steps": []}))
    argv = ["zigzag", fx("f_retr"), "--equiv", str(t1), str(t2), "--format", "json"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: zigzag document: unknown field 'step'\n")


@pytest.mark.parametrize("ends", [["--from", "nope", "--to", "zzz"], ["--from", "a"],
                                  ["--to", "b"]])
def test_zigzag_equiv_excludes_from_and_to(tmp_path, capsys, ends):
    zz = tmp_path / "one.zz"
    zz.write_text(json.dumps({"start": "b", "steps": [["e", "fwd"]]}))
    assert cli.main(["zigzag", fx("f_retr"), "--equiv", str(zz), str(zz), *ends]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: --equiv and --from/--to exclude each other\n")


def _equiv_json(capsys, tmp_path, cat, document, f, g):
    """``hocat zigzag --equiv --format json`` on the one-arrow zigzags
    of the parallel arrows ``f`` and ``g``."""
    files = []
    for k, m in enumerate((f, g)):
        files.append(tmp_path / f"z{k}.zz")
        files[-1].write_text(json.dumps({"start": cat.obj_name(cat.dom(m)),
                                         "steps": [[cat.mor_name(m), "fwd"]]}))
    doc_file = tmp_path / "category.json"
    doc_file.write_text(json.dumps(document))
    assert cli.main(["zigzag", str(doc_file), "--equiv", *map(str, files),
                     "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_zigzag_equiv_refutes_an_invertible_family_without_search(monkeypatch, tmp_path,
                                                                  capsys):
    """With every member invertible the category itself refutes an
    inequivalent pair, and no search is built."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("unexpected search")

    cat, _members, doc = all_functions_instance((1, 2, 3), "bijections")
    monkeypatch.setattr("hocat.zigzag._Engine", refuse)
    got = _equiv_json(capsys, tmp_path, cat, doc, cat.mor("m0"), cat.mor("m1"))
    assert got == {"status": "unknown", "trace": None}


@pytest.mark.parametrize("mangle, zigzag", [
    (lambda d: d.update(weak_equivalences=[["s"]]), None),
    (lambda d: d["morphisms"][0].update(dom=["a"]), None),
    (lambda d: d.update(subcategory={"objects": [["a"]]}), None),
    (lambda d: d["composition"][0].update(after={}), None),
    (None, {"start": [], "steps": []}),
    (None, {"start": 1.5, "steps": []}),
    (None, {"start": "b", "steps": [[4, "fwd"]]}),
    (None, {"start": "b", "steps": [["e", 0]]}),
], ids=["weq-list", "dom-list", "subcategory-object-list", "after-dict",
        "start-list", "start-float", "step-index", "direction-index"])
def test_non_name_references_are_malformed(tmp_path, capsys, mangle, zigzag):
    """Documents refer to objects and arrows by name: anything else exits 2."""
    doc = json.loads(path("f_retr").read_text())
    if mangle is not None:
        mangle(doc)
    file = tmp_path / "category.json"
    file.write_text(json.dumps(doc))
    argv = ["analyze", str(file)]
    if zigzag is not None:
        zz = tmp_path / "z.json"
        zz.write_text(json.dumps(zigzag))
        argv = ["zigzag", str(file), "--equiv", str(zz), str(zz)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("mangle, message", [
    (lambda d: d["morphisms"][0].update(extra=1),
     "morphism entry needs exactly name/dom/cod, got ['cod', 'dom', 'extra', 'name']"),
    (lambda d: d["composition"][0].pop("equals"),
     "composition entry needs exactly after/before/equals, got ['after', 'before']"),
], ids=["morphism-fields", "composition-fields"])
def test_entry_field_messages(tmp_path, capsys, mangle, message):
    """An entry with the wrong fields exits 2 and names the fields it has."""
    doc = json.loads(path("f_retr").read_text())
    mangle(doc)
    file = tmp_path / "category.json"
    file.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(file)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["analyze", "deform"])
@pytest.mark.parametrize("target", [
    {"morphisms": ["id:a"]}, {"objects": 5}, {"objects": []}, {"objects": "a"},
], ids=["no-objects", "objects-number", "objects-empty", "objects-string"])
def test_malformed_deformation_target(tmp_path, capsys, command, target):
    """A deformation block's target is checked like the top-level subcategory."""
    doc = json.loads(path("f_retr_def").read_text())
    doc["deformation"][0]["target"] = target
    file = tmp_path / "category.json"
    file.write_text(json.dumps(doc))
    assert cli.main([command, str(file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: deformation.target") and "Traceback" not in err


def _second_link(**fields):
    """Append a trivial link on {a} after f_retr_def's link onto {a}."""
    def mangle(doc):
        link = {"direction": "left", "on_objects": {"a": "a"},
                "on_morphisms": {"id:a": "id:a"}, "theta": {"a": "id:a"}}
        link.update(fields)
        doc["deformation"].append(link)
    return mangle


def _identity_link(doc):
    """Retract f_retr_def onto all of itself, with s sent off its endpoints."""
    doc["deformation"][0].update(
        target={"objects": ["a", "b"]}, on_objects={"a": "a", "b": "b"},
        on_morphisms={"id:a": "id:a", "id:b": "id:b", "s": "e", "r": "r", "e": "e"},
        theta={"a": "id:a", "b": "id:b"})


@pytest.mark.parametrize("mangle, code, message", [
    (lambda d: d["subcategory"].update(morphisms="s"), 2,
     "subcategory.morphisms: list required"),
    (lambda d: d["subcategory"].update(morphisms=["zz"]), 2,
     "subcategory references unknown morphism 'zz'"),
    (lambda d: d["subcategory"].update(objects=["a", "b"], morphisms=["s", "r"]), 3,
     "subcategory not closed under composition: 's' after 'r'"),
    (_second_link(theta={"a": "id:a", "b": "s"}), 3,
     "theta given for object 'b' outside its stage"),
    (_second_link(theta={"a": "e"}), 3,
     "theta component 'e' is not an arrow of the stage"),
    (_second_link(on_morphisms={"id:a": "id:a", "s": "id:a"}), 3,
     "deformation maps arrow 's' outside its stage"),
    (_identity_link, 3, "image of 's' has endpoints off the retracted objects"),
], ids=["morphisms-not-list", "morphisms-unknown", "not-closed", "theta-off-stage",
        "theta-not-stage-arrow", "arrow-off-stage", "image-endpoints"])
def test_subcategory_and_deformation_messages(tmp_path, capsys, mangle, code, message):
    """Each check on a document's subcategory and deformation blocks
    exits with its code (2 malformed, 3 invalid) and its own message."""
    doc = json.loads(path("f_retr_def").read_text())
    mangle(doc)
    file = tmp_path / "category.json"
    file.write_text(json.dumps(doc))
    assert cli.main(["deform", str(file)]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_zigzag_direction_is_fwd_or_bwd(tmp_path, capsys, direction):
    """A zigzag file names a step's direction fwd or bwd, nothing else."""
    zz = tmp_path / "z.json"
    zz.write_text(json.dumps({"start": "b", "steps": [["e", direction]]}))
    assert cli.main(["zigzag", fx("f_retr"), "--equiv", str(zz), str(zz)]) == 2
    assert capsys.readouterr() == (
        "", f"error: zigzag step: unknown direction {direction!r}\n")


def test_text_format_has_one_line_per_json_key(tmp_path, capsys):
    """With --format text, quotient, deform, zigzag --from/--to and
    zigzag --equiv print one unindented ``key:`` line per key of the
    same command's JSON document, on every fixture: every pair of
    objects for --from/--to, and each object's empty zigzag against its
    identity step for --equiv, found equivalent and, at budget 0, not."""
    runs = []
    for name in NAMES:
        runs += [["quotient", fx(name)], ["deform", fx(name)]]
        objects = json.loads(path(name).read_text())["objects"]
        runs += [["zigzag", fx(name), "--from", x, "--to", y] for x in objects for y in objects]
        for x in objects:
            files = [tmp_path / f"{name}-{x}-{k}.json" for k in (0, 1)]
            files[0].write_text(json.dumps({"start": x, "steps": []}))
            files[1].write_text(json.dumps({"start": x, "steps": [[f"id:{x}", "fwd"]]}))
            equiv = ["zigzag", fx(name), "--equiv", *map(str, files)]
            runs += [equiv, equiv + ["--budget", "0"]]
    statuses = collections.Counter()
    for argv in runs:
        assert cli.main([*argv, "--format", "json"]) == 0, argv
        doc = json.loads(capsys.readouterr().out)
        statuses[doc.get("status")] += 1
        assert cli.main([*argv, "--format", "text"]) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        keys = [line.split(":", 1)[0] for line in lines if not line.startswith(" ")]
        assert sorted(keys) == sorted(doc), (argv, lines)
    assert statuses.keys() == {None, "connected", "unreachable", "equivalent", "unknown"}


def test_deform_subcommand_reports_routes():
    proc = run_cli("deform", fx("f_def"), "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["ho_cr"]["route"] == "target-classes"
    assert doc["ho_cr"]["conjugation"]["route"] == "zigzag-lemma"
    assert doc["ho_cr"]["conjugation"]["status"] == "verified"
    assert all(len(v) == 1 for v in doc["ho_cr"]["homs"].values())

    proc2 = run_cli("deform", fx("f_retr_def"), "--format", "json")
    doc2 = json.loads(proc2.stdout)
    assert doc2["ho_cr"]["route"] == "target-classes"
    assert doc2["ho_cr"]["conjugation"]["route"] == "functor-pair"
    assert doc2["ho_cr"]["conjugation"]["status"] == "verified"
    assert doc2["ho_cr"]["inverts_w"] is True

    plain = run_cli("deform", fx("f_retr"), "--format", "json")
    assert json.loads(plain.stdout)["deformation"] == "absent"


def test_deform_reports_ho_cr_unavailable(tmp_path, capsys):
    """f_span deformed onto all of itself by the identity: neither the
    target nor the category is certified, so Ho(C, r) is unavailable."""
    doc = json.loads(path("f_span").read_text())
    objects = doc["objects"]
    arrows = [m["name"] for m in doc["morphisms"]] + [f"id:{x}" for x in objects]
    doc["deformation"] = [{
        "direction": "left", "target": {"objects": objects},
        "on_objects": {x: x for x in objects}, "on_morphisms": {f: f for f in arrows},
        "theta": {x: f"id:{x}" for x in objects}}]
    file = tmp_path / "span.json"
    file.write_text(json.dumps(doc))
    assert cli.main(["deform", str(file), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert err == ""
    assert (report["whitehead"], report["deformation"]["c0_whitehead"]) == ("failed", "failed")
    assert report["ho_cr"] == {"reason": "requires functorial chain or ambient certificate",
                               "status": "unavailable"}


def test_negative_budget_is_malformed(monkeypatch, capsys, tmp_path):
    monkeypatch.delenv("HOCAT_BUDGET", raising=False)
    assert cli.main(["analyze", fx("f_retr"), "--budget", "-1"]) == 2
    assert "budget must be nonnegative" in capsys.readouterr().err
    zz = tmp_path / "one.zz"
    zz.write_text(json.dumps({"start": "b", "steps": [["e", "fwd"]]}))
    assert cli.main(["zigzag", fx("f_retr"), "--equiv", str(zz), str(zz),
                     "--budget", "-2"]) == 2
    monkeypatch.setenv("HOCAT_BUDGET", "-3")
    for argv in (["analyze", fx("f_retr")], ["quotient", fx("f_retr")],
                 ["zigzag", fx("f_retr"), "--from", "a", "--to", "b"]):
        assert cli.main(argv) == 2
        assert "budget must be nonnegative, got -3" in capsys.readouterr().err


@pytest.mark.parametrize("budget", [True, False, 2.5, "3"])
def test_non_integer_budget_is_malformed(budget):
    with pytest.raises(FormatError) as err:
        cli.run_analysis(fx("f_retr"), budget=budget)
    assert str(err.value) == f"budget must be an integer, got {budget!r}"
    assert cli.run_analysis(fx("f_retr"), budget=3).budget == 3


def _json_values(rng, depth=0):
    """A random JSON value built from dicts with str keys, lists, tuples
    and scalars, strings drawn from quotes, backslashes, control,
    non-ASCII and astral characters."""
    def text():
        chars = 'ab"\\/\n\t\x00\x1f\x7fé\u2028\ufeff😀'
        return "".join(rng.choice(chars) for _ in range(rng.randrange(5)))

    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return text()
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.choice([0, -1, 7, -(10 ** 30), 2 ** 64])
    if kind == 3:
        return rng.choice([0.0, -0.0, 0.1, -2.5e-8, 1e300, float("inf"), float("nan")])
    if kind in (4, 5):
        return rng.choice([[], (), {}])
    items = [_json_values(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items) if items else [text() for _ in range(rng.randrange(1, 4))]
    return {text(): v for v in items}


def test_json_writer_is_json_dumps_with_indent(monkeypatch, capsys, tmp_path):
    """JSON reports come from the report writer, never from the stdlib's
    indenting encoder, and match ``json.dumps(indent=2, sort_keys=True)``
    byte for byte: on every fixture's analyze, quotient and deform
    report, on zigzag outputs, and on random nested values."""
    dumps = json.dumps

    def no_indent(value, **kwargs):
        assert kwargs.get("indent") is None, "json.dumps called with indent"
        return dumps(value, **kwargs)

    monkeypatch.setattr(json, "dumps", no_indent)
    zz = [tmp_path / "one.zz", tmp_path / "two.zz"]
    zz[0].write_text(dumps({"start": "b", "steps": [["e", "fwd"]]}))
    zz[1].write_text(dumps({"start": "b", "steps": [["id:b", "fwd"]]}))
    runs = [[command, fx(name)] for name in NAMES for command in ("analyze", "quotient", "deform")]
    runs += [["zigzag", fx("f_retr"), "--equiv", *map(str, zz)],
             ["zigzag", fx("f_retr"), "--equiv", *map(str, zz), "--budget", "0"],
             ["zigzag", fx("f_span"), "--from", "a", "--to", "b"],
             ["zigzag", fx("f_span"), "--from", "b", "--to", "a"]]
    for argv in runs:
        assert cli.main([*argv, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == dumps(json.loads(out), indent=2, sort_keys=True) + "\n", argv
    report = cli.run_analysis(fx("f_retr_def"))
    doc = {"input": report.path, "budget": report.budget, **report.data}
    assert cli.render_report(report, "json") == dumps(doc, indent=2, sort_keys=True) + "\n"
    rng = random.Random(2718)
    for _ in range(2000):
        value = _json_values(rng)
        assert cli._json(value) == dumps(value, indent=2, sort_keys=True), value


def test_analyze_computes_each_intermediate_once(monkeypatch):
    """Per category, one analyze finds the generating set, checks the
    family, builds the opposite, the congruence and the quotient at most
    once, and runs each side's fork condition and common fork once.
    Congruences, which build their quotients, are counted where they are
    built, whoever asks for them."""
    calls = collections.Counter()
    keep = []  # keeps every counted category alive, so ids stay unique

    def counted(owner, name, subject, detail=lambda *args: None):
        real = getattr(owner, name)

        def wrapper(*args):
            keep.append(subject(*args))
            calls[name, id(keep[-1]), detail(*args)] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(homotopy, "check_weq_axioms", lambda cat, weqs: cat)
    counted(homotopy, "check_split_generated", lambda family: family.base)
    counted(homotopy, "opposite", lambda cat: cat)
    counted(homotopy, "least_congruence", lambda rel: rel.base)
    counted(congruence.Congruence, "__init__", lambda cong, base, classes: base)
    counted(homotopy, "_fork_condition", lambda work, transposed, members, related, rel, side: work,
            lambda work, transposed, members, related, rel, side: side)
    real_generators = fincat.FinCat.generators.func

    def generators(cat):
        keep.append(cat)
        calls["generators", id(cat), None] += 1
        return real_generators(cat)
    prop = functools.cached_property(generators)
    prop.__set_name__(fincat.FinCat, "generators")
    monkeypatch.setattr(fincat.FinCat, "generators", prop)
    counted(homotopy, "_common_fork", lambda work, transposed, members, related, rel, side: work,
            lambda work, transposed, members, related, rel, side: side)
    for name in NAMES:
        calls.clear()
        cli.run_analysis(fx(name))
        assert calls and max(calls.values()) == 1, (name, calls)
        assert sum(k[0] == "_fork_condition" for k in calls) == 2, name
        assert sum(k[0] == "_common_fork" for k in calls) == 2, name
        assert any(k[0] == "generators" for k in calls), name


def test_analyze_builds_no_witnesses(monkeypatch, tmp_path):
    """The fork condition is decided from the closure of the good pairs:
    analyze never names a fork and mediator for a pair."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("analyze built a homotopy witness")

    monkeypatch.setattr(homotopy, "HomotopyWitness", refuse)
    file = tmp_path / "fun123.json"
    file.write_text(json.dumps(all_functions_instance((1, 2, 3), "all")[2]))
    for document in [fx(name) for name in NAMES] + [str(file)]:
        report = cli.run_analysis(document)
        assert report.data["forks"] != "skipped", document


def test_analyze_reads_only_the_forks_it_needs(monkeypatch, tmp_path, capsys):
    """analyze reads no fork witness off the column fibres, on every
    fixture and on all functions between sets of sizes 1, 2 and 3 with
    W every arrow: the fork condition is read off the closure of the
    good pairs, and the common fork asks the fibres only whether two
    pairs share a fork."""
    def refuse(*_args):
        raise AssertionError("analyze read a fork witness")

    monkeypatch.setattr(homotopy._LegFibres, "witness", refuse)
    file = tmp_path / "fun123.json"
    file.write_text(json.dumps(all_functions_instance((1, 2, 3), "all")[2]))
    for document in [fx(name) for name in NAMES] + [str(file)]:
        assert cli.main(["analyze", document, "--format", "json"]) == 0, document
        assert json.loads(capsys.readouterr().out)["forks"] != "skipped", document


def test_analyze_reads_each_quotient_inverse_once(monkeypatch, tmp_path):
    """One analyze asks its quotient for each class's inverse once, for
    sigma and the Whitehead certificate together: on all functions
    between sets of sizes 1, 2 and 3 with W every arrow, the 9 classes
    make 9 ``one_sided_inverses`` calls on the quotient."""
    calls = collections.Counter()
    keep = []  # keeps every asked category alive, so ids stay unique
    real = fincat.FinCat.one_sided_inverses

    def counted(cat, f):
        keep.append(cat)
        calls[id(cat)] += 1
        return real(cat, f)
    monkeypatch.setattr(fincat.FinCat, "one_sided_inverses", counted)
    file = tmp_path / "fun123.json"
    file.write_text(json.dumps(all_functions_instance((1, 2, 3), "all")[2]))
    report = cli.run_analysis(str(file))
    assert report.data["whitehead"] == "certified"
    quotients = {id(cat): cat for cat in keep if all(m.name[0] == "[" for m in cat.morphisms)}
    assert len(quotients) == 1
    (qid, q), = quotients.items()
    assert len(q.morphisms) == 9 and calls[qid] == 9


def test_single_stage_matches_full_report(tmp_path):
    # f_iso with u alone as a member fails two out of three.
    doc = json.loads(path("f_iso").read_text())
    doc["weak_equivalences"] = ["u"]
    failing = tmp_path / "axioms_fail.json"
    failing.write_text(json.dumps(doc))
    for file in [fx(name) for name in NAMES] + [str(failing)]:
        full = cli.run_analysis(file).data
        for stage in cli.STAGES:
            part = cli.run_analysis(file, stages=[stage]).data
            assert part.keys() == full.keys()
            for key, value in full.items():
                want = value if key in cli._STAGES[stage][0] else "skipped"
                assert part[key] == want, (file, stage, key)
    assert full["axioms"]["ok"] is False and full["ho_cr"] == "absent"


def test_quotient_skips_fork_work(monkeypatch, capsys):
    """Only selected stages are computed: quotient never reaches forks."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("fork work for an unselected stage")

    for name in ("_fork_condition", "_fork_witnesses", "_common_fork", "_LegFibres",
                 "_left_closure", "intransitive_triple"):
        monkeypatch.setattr(homotopy, name, refuse)
    monkeypatch.setattr(homotopy.Analysis, "saturation", property(refuse))
    assert cli.main(["quotient", fx("f_retr"), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["quotient"]["morphisms"] == 4
    assert cli.main(["analyze", fx("f_retr"), "--format", "json",
                     "--stages", "validate,homotopy"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["forks"] == doc["saturation"] == "skipped"


def test_text_report_timings(monkeypatch):
    """The validate timing covers loading; each timing ends its key's line."""
    real_load = cli.load_file

    def slow_load(path):
        time.sleep(0.05)
        return real_load(path)

    monkeypatch.setattr(cli, "load_file", slow_load)
    report = cli.run_analysis(fx("f_retr"), budget=8)
    assert report.timings["validate"] >= 50.0
    lines = cli.render_report(report, "text").splitlines()
    for stage in report.timings:
        line = next(ln for ln in lines if ln.startswith(stage + ":"))
        assert re.fullmatch(rf"{stage}:(  | .*  )\[\d+\.\d ms\]", line), line
    assert sum("ms]" in ln for ln in lines) == len(report.timings)
    assert not any(ln.endswith(" ") for ln in lines)
    assert "validate:  [" in "\n".join(lines)


def test_parser_is_built_once_and_rejects_bad_arguments(capsys):
    assert cli._build_parser() is cli._build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", fx("f_retr"), "--format", "yaml"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


def test_benchmark_traced_functions_exist():
    """Every function the benchmark's tracer wraps is still defined in hocat,
    so a traced benchmark run cannot break on a renamed or deleted name;
    every span a metric reads is one the tracer wraps; and a traced
    analyze still passes through the congruence layer's functions."""
    file = pathlib.Path(__file__).parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", file)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    wrapped = set()
    for modname, names in spans.LAYERS.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
        wrapped.update(names)
    for metric, (_how, names, _status) in spans.METRICS.items():
        assert names <= wrapped, metric
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        cli.run_analysis(fx("f_retr_def"))
        tracer.end_op()
    finally:
        tracer.remove()
    seen = {span[0] for span in tracer.spans}
    assert {"least_congruence", "quotient", "sigma_of", "check_conjugation"} <= seen, seen


def test_every_exported_name_resolves():
    """Each hocat module's ``__all__`` names only what the module defines,
    so ``from hocat.<module> import *`` cannot break on a stale entry, and
    ``from hocat import *`` works."""
    for info in pkgutil.walk_packages(hocat.__path__, "hocat."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"
        exec(f"from {info.name} import *", {})
    exec("from hocat import *", {})


def test_unknown_format_and_stage_are_format_errors():
    report = cli.run_analysis(fx("f_retr"))
    with pytest.raises(FormatError) as err:
        cli.render_report(report, "xml")
    assert str(err.value) == "unknown format 'xml'; use text or json"
    with pytest.raises(FormatError) as err:
        cli.run_analysis(fx("f_retr"), stages=["nope"])
    assert str(err.value) == f"unknown stage 'nope'; stages are {', '.join(cli.STAGES)}"
