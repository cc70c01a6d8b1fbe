"""The output checks reject corrupted outputs.

    python3 -m pytest benchmarks/test_checks.py

Each test runs hocat on a small input, confirms the untouched output
passes, then corrupts one fact and expects the check to fail.
"""

import copy
import json
import os
import random

import pytest

import checks
import gen
import run

run.import_hocat()

RETR = os.path.join(run.ROOT, "src", "hocat", "fixtures", "f_retr.json")


def analyze(path):
    return json.loads(run.cli_op(["analyze", path, "--format", "json"], None).run())


@pytest.fixture(scope="module")
def all_functions(tmp_path_factory):
    rng = random.Random(3)
    fc = gen.all_functions((1, 2), rng)
    path = str(tmp_path_factory.mktemp("all") / "category.json")
    gen.write_json(path, fc.document(fc.arrows, rng))
    return fc, path, analyze(path)


def rejects(check, out):
    with pytest.raises(checks.CheckError):
        check(out)


def test_all_functions_flipped_verdict_rejected(all_functions):
    fc, _, out = all_functions
    checks.check_all_functions_analysis(fc, out)
    bad = copy.deepcopy(out)
    bad["whitehead"] = "failed"
    rejects(lambda o: checks.check_all_functions_analysis(fc, o), bad)


def test_all_functions_split_and_merged_classes_rejected(all_functions):
    fc, _, out = all_functions
    split = copy.deepcopy(out)
    cls = split["homotopy"]["nonsingleton_classes"][0]
    split["homotopy"]["nonsingleton_classes"][0] = cls[1:]
    split["homotopy"]["classes"] += 1
    rejects(lambda o: checks.check_all_functions_analysis(fc, o), split)
    merged = copy.deepcopy(out)
    merged["homotopy"]["nonsingleton_classes"] = [
        sum(merged["homotopy"]["nonsingleton_classes"], [])]
    rejects(lambda o: checks.check_all_functions_analysis(fc, o), merged)


def test_library_stages_checked(all_functions):
    fc, path, _ = all_functions
    fincat, weq, homotopy = run.hocat.fincat, run.hocat.weq, run.hocat.homotopy
    raw = fincat.load_file(path)
    cat = fincat.validate_category(raw)
    members = fincat.resolve_weqs(cat, raw.weak_equivalences)
    family = weq.check_weq_axioms(cat, raw.weak_equivalences)
    res = homotopy.certify_whitehead(cat, members)
    stages = {"validate_category": cat, "check_weq_axioms": family,
              "check_split_generated": weq.check_split_generated(family),
              "homotopy_congruence": homotopy.homotopy_congruence(cat, members),
              "certify_whitehead": res,
              "quotient": run.hocat.congruence.quotient(cat, res.congruence)}
    checks.check_all_functions_library(fc, stages)
    stages["homotopy_congruence"] = run.hocat.congruence.Congruence.discrete(cat)
    rejects(lambda s: checks.check_all_functions_library(fc, s), stages)


def test_analysis_corruptions_rejected():
    with open(RETR, encoding="utf-8") as fh:
        table = checks.Table(json.load(fh))
    out = analyze(RETR)
    checks.check_analysis(table, out)
    assert sorted(out["homotopy"]["nonsingleton_classes"][0]) == ["e", "id:b"]

    flipped = copy.deepcopy(out)
    flipped["axioms"]["ok"] = False
    rejects(lambda o: checks.check_analysis(table, o), flipped)

    split = copy.deepcopy(out)
    split["homotopy"]["nonsingleton_classes"] = []
    split["homotopy"]["classes"] += 1
    rejects(lambda o: checks.check_analysis(table, o), split)

    merged = copy.deepcopy(out)
    merged["homotopy"]["nonsingleton_classes"] = [["e", "id:b", "s"]]  # s: a -> b
    merged["homotopy"]["classes"] -= 1
    rejects(lambda o: checks.check_analysis(table, o), merged)

    inverse = copy.deepcopy(out)
    inverse["whitehead_detail"]["inverses"]["s"] = "s"
    rejects(lambda o: checks.check_analysis(table, o), inverse)


def test_zigzag_answers_checked():
    z = {"start": "o0", "steps": [["m0", "fwd"]]}
    other = {"start": "o0", "steps": [["m1", "fwd"]]}
    trace = {"start": {"source": "o0", "target": "o1", "steps": z["steps"]},
             "end": {"source": "o0", "target": "o1", "steps": other["steps"]}, "moves": []}
    inequivalent = run.Query(z, other, False)
    checks.check_zigzag(inequivalent, {"status": "unknown", "trace": None})
    rejects(lambda o: checks.check_zigzag(inequivalent, o),
            {"status": "equivalent", "trace": trace})
    equivalent = run.Query(z, other, True)
    checks.check_zigzag(equivalent, {"status": "equivalent", "trace": trace})
    rejects(lambda o: checks.check_zigzag(equivalent, o), {"status": "unknown", "trace": None})
