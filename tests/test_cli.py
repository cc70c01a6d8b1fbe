import json
import os
import re
import subprocess
import sys
import time

import pytest

from hocat import cli
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
    assert run_cli("analyze", str(broken)).returncode == 2

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


def test_quotient_skips_fork_work(monkeypatch, capsys):
    """Only selected stages are computed: quotient never reaches forks."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("fork work for an unselected stage")

    monkeypatch.setattr(cli, "check_fork_condition", refuse)
    monkeypatch.setattr(cli, "check_saturation", refuse)
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
    report = cli.run_analysis(fx("f_retr"), {"budget": 8})
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
