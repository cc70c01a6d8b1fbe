import collections
import functools
import importlib.util
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import time

import pytest

from gencat import all_functions_instance

import hocat
from hocat import cli, congruence, fincat, homotopy
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


def test_analyze_computes_each_intermediate_once(monkeypatch):
    """Per category, one analyze finds the generating set, checks the
    family, builds the opposite, the congruence and the quotient at most
    once, and runs each side's fork condition at most once.  A side's
    common fork indexes exactly the hom pairs that hold a distinct
    related pair, each once, up to the one with its counterexample.
    Quotients are counted where they are built, whoever asks for them."""
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
    counted(congruence.QuotientResult, "__init__", lambda result, cong: cong.base)
    counted(homotopy, "_fork_condition", lambda work, transposed, members, related, rel, side: work,
            lambda work, transposed, members, related, rel, side: side)
    counted(homotopy, "_ForkIndex", lambda work, transposed, members, related, va, vb: work,
            lambda work, transposed, members, related, va, vb: (va, vb))
    real_generators = fincat.FinCat.generators.func

    def generators(cat):
        keep.append(cat)
        calls["generators", id(cat), None] += 1
        return real_generators(cat)
    prop = functools.cached_property(generators)
    prop.__set_name__(fincat.FinCat, "generators")
    monkeypatch.setattr(fincat.FinCat, "generators", prop)
    commons = []
    real_common = homotopy._common_fork

    def common(work, transposed, members, related, rel, side):
        commons.append((work, rel, real_common(work, transposed, members, related, rel, side)))
        return commons[-1][2]
    monkeypatch.setattr(homotopy, "_common_fork", common)
    for name in NAMES:
        calls.clear()
        commons.clear()
        cli.run_analysis(fx(name))
        assert calls and max(calls.values()) == 1, (name, calls)
        assert sum(k[0] == "_fork_condition" for k in calls) == 2, name
        assert any(k[0] == "generators" for k in calls), name
        assert len(commons) == 2, name
        for work, rel, result in commons:
            homs = sorted({(work.dom(f), work.cod(f)) for f, _g in rel.pairs})
            if result.counterexample is not None:
                f = result.counterexample[0][0]
                homs = homs[:homs.index((work.dom(f), work.cod(f))) + 1]
            indexed = sorted(k[2] for k in calls if k[0] == "_ForkIndex" and k[1] == id(work))
            assert indexed == homs, (name, indexed, homs)


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


def test_analyze_reads_only_the_forks_it_needs(monkeypatch, tmp_path):
    """On all functions between sets of sizes 1, 2 and 3 with W every
    arrow, one analyze reads fewer weq forks than there are at the hom
    pairs it indexes: each fork question stops at its answer."""
    real = homotopy._left_weq_forks
    asked, read = [], collections.Counter()

    def counting(*args):
        asked.append(args)
        for item in real(*args):
            read["forks"] += 1
            yield item

    monkeypatch.setattr(homotopy, "_left_weq_forks", counting)
    file = tmp_path / "fun123.json"
    file.write_text(json.dumps(all_functions_instance((1, 2, 3), "all")[2]))
    assert cli.main(["analyze", str(file), "--format", "json"]) == 0
    full = sum(sum(1 for _ in real(*args)) for args in asked)
    assert 0 < read["forks"] < full, (read["forks"], full)


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

    for name in ("_fork_condition", "_fork_witnesses", "_common_fork", "_ForkIndex",
                 "_left_weq_forks", "_left_closure", "intransitive_triple"):
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
    so a traced benchmark run cannot break on a deleted name."""
    file = pathlib.Path(__file__).parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans", file)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for modname, names in spans.LAYERS.items():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"


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
