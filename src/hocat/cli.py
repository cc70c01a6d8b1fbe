"""File-driven front end: load a category document, analyze, report.

The analyze pipeline reports validate, axioms, splits, homotopy,
whitehead, forks, saturation, and deformation in that order, from one
:class:`~hocat.homotopy.Analysis` session: each subcommand computes only
what its selected stages depend on, and unselected stages read
"skipped".  A failed axiom check skips everything downstream rather
than aborting, because analysis verdicts are not process errors.  Only
unreadable or malformed input (exit 2, a negative budget included) and
law violations (exit 3) abort.

JSON reports are byte-stable for identical input and options: keys are
sorted and timings stay out.  The text format carries the timings and
the move traces instead.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass

from .deformation import (build_ho_cr, check_conjugation, check_inverts_w,
                          compose_chain, validate_deformation)
from .errors import FormatError, MoveError, ValidationError
from .fincat import (FinCat, known_name, load_file, read_json, resolve_weqs,
                     subcategory, validate_category)
from .homotopy import Analysis
from .zigzag import bounded_equiv, connect, trace_to_json, zigzag_from_json, zigzag_to_json

__all__ = ["AnalysisReport", "run_analysis", "render_report", "main", "STAGES"]


def budget_of(value=None) -> int:
    """The zigzag move budget: ``value``, else HOCAT_BUDGET, else 8.

    Anything but a nonnegative integer is malformed input.
    """
    if value is None:
        raw = os.environ.get("HOCAT_BUDGET", "8")
        try:
            value = int(raw)
        except ValueError:
            raise FormatError(f"HOCAT_BUDGET must be an integer, got {raw!r}") from None
    if value < 0:
        raise FormatError(f"budget must be nonnegative, got {value}")
    return value


@dataclass
class AnalysisReport:
    path: str
    budget: int
    data: dict
    timings: dict


def _names(cat: FinCat, indices) -> list:
    return [cat.mor_name(i) for i in indices]


def _hom_listing(cat: FinCat) -> dict:
    homs = {}
    for x in range(len(cat.objects)):
        for y in range(len(cat.objects)):
            members = cat.hom(x, y)
            if members:
                homs[f"{cat.obj_name(x)}>{cat.obj_name(y)}"] = [
                    cat.mor_name(m) for m in members]
    return homs


def run_analysis(path, *, budget=None, stages=None) -> AnalysisReport:
    """Analyze one file and collect the report.

    ``budget`` is the zigzag move budget (default from HOCAT_BUDGET or
    8) and ``stages`` a subset of STAGES to report (default all;
    unselected stages read "skipped").  One
    :class:`Analysis` session serves every selected stage, so each
    intermediate is computed once and only when a selected stage needs
    it.  When the family axioms fail, the stages after them read
    "skipped".  The validate timing includes loading the file.
    """
    budget = budget_of(budget)
    selected = STAGES if stages is None else tuple(stages)
    unknown = [s for s in selected if s not in STAGES]
    if unknown:
        raise FormatError(f"unknown stage {unknown[0]!r}; stages are {', '.join(STAGES)}")

    data: dict = {}
    timings: dict = {}
    start = time.perf_counter()
    raw = load_file(path)
    session = Analysis(validate_category(raw), raw.weak_equivalences)
    for stage, (keys, report) in _STAGES.items():
        if stage not in selected:
            data.update(dict.fromkeys(keys, "skipped"))
        elif stage not in ("validate", "axioms") and not session.family.report.axioms_ok:
            absent = stage == "deformation" and not raw.deformation
            data.update(dict.fromkeys(keys, "absent" if absent else "skipped"))
        else:
            data.update(report(session, raw, budget))
            timings[stage] = (time.perf_counter() - start) * 1000.0
        start = time.perf_counter()
    return AnalysisReport(path=str(path), budget=budget, data=data, timings=timings)


def _validate_report(session, raw, budget):
    cat = session.cat
    return {"validate": {
        "objects": len(cat.objects),
        "morphisms": len(cat.morphisms),
        "weak_equivalences": _names(cat, sorted(session.members)),
    }}


def _axioms_report(session, raw, budget):
    cat, rep = session.cat, session.family.report
    return {"axioms": {
        "ok": rep.axioms_ok,
        "two_of_three": rep.two_of_three_ok,
        "two_of_three_witness": _names(cat, rep.two_of_three_witness) if rep.two_of_three_witness else None,
        "weak_invertibility": rep.weak_invertibility_ok,
        "weak_invertibility_witness": _names(cat, rep.weak_invertibility_witness) if rep.weak_invertibility_witness else None,
        "inserted_identities": _names(cat, rep.inserted_identities),
    }}


def _splits_report(session, raw, budget):
    cat, mn, sg = session.cat, session.cat.mor_name, session.splitgen
    if not sg.generated:
        return {"splits": {"generated": False, "missing": mn(sg.missing)}}
    cert = sg.certificate
    return {"splits": {
        "generated": True,
        "splits": [[mn(m), mn(inv), kind] for m, inv, kind in cert.split_weqs],
        "decompositions": {mn(m): _names(cat, parts)
                           for m, parts in sorted(cert.decompositions.items())},
    }}


def _homotopy_report(session, raw, budget):
    cat, cong = session.cat, session.congruence
    return {"homotopy": {
        "classes": len(cong.classes),
        "nonsingleton_classes": [_names(cat, cls) for cls in cong.nonsingleton_classes()],
    }}


def _whitehead_report(session, raw, budget):
    cat, mn, wres = session.cat, session.cat.mor_name, session.whitehead
    if wres.certified:
        q = session.congruence.quotient.quotient
        return {
            "whitehead": wres.status,
            "whitehead_detail": {"inverses": {
                mn(w): mn(g) for w, g in sorted(wres.certificate.inverse_table.items())}},
            "quotient": {
                "objects": len(q.objects),
                "morphisms": len(q.morphisms),
                "homs": _hom_listing(q),
            },
        }
    detail = {}
    if wres.status == "failed":
        w = wres.witness
        detail = {"witness": {
            "source": cat.obj_name(w.source),
            "target": cat.obj_name(w.target),
            "zigzag": zigzag_to_json(cat, w.zigzag),
        }}
    return {"whitehead": wres.status, "whitehead_detail": detail, "quotient": "skipped"}


def _forks_report(session, raw, budget):
    cat, forks = session.cat, {}
    for side in ("left", "right"):
        fc = session.fork_condition(side)
        forks[side] = {
            "fork_condition": fc.ok,
            "fork_counterexample": _names(cat, fc.counterexample) if fc.counterexample else None,
            "common_fork": session.common_fork(side).ok,
            "rc_transitive": session.rc_transitive(side)[0],
        }
    return {"forks": forks}


def _saturation_report(session, raw, budget):
    if not session.whitehead.certified:
        return {"saturation": "skipped"}
    sat = session.saturation
    return {"saturation": {
        "saturated": sat.saturated,
        "violations": _names(session.cat, sat.violations),
        "predicted": sat.predicted,
        "weak_invertibility": sat.weak_invertibility,
        "split_generated": sat.split_generated,
        "fork_left": sat.fork_left,
        "fork_right": sat.fork_right,
    }}


def _deformation_report(session, raw, budget):
    if raw.deformation is None:
        return {"deformation": "absent", "ho_cr": "absent"}
    cat, members = session.cat, session.members
    mn, on = cat.mor_name, cat.obj_name
    ambient = subcategory(cat, range(len(cat.objects)))
    links = []
    for block in raw.deformation:
        tgt = block.get("target") or raw.subcategory
        if tgt is None:
            raise ValidationError(
                "deformation needs a target: give the block a target or declare "
                "a top-level subcategory")
        c0 = subcategory(cat, tgt["objects"], tgt.get("morphisms"))
        links.append(validate_deformation(cat, members, c0, block, ambient=ambient))
        ambient = c0
    chain = compose_chain(links)

    sub = chain.target
    sub_members = [i for i, m in enumerate(sub.morphisms) if m in members]
    c0_res = Analysis(sub.cat, sub_members).whitehead
    cert0 = c0_res.certificate if c0_res.certified else None
    wres = session.whitehead
    ambient_cert = wres.certificate if wres.certified else None

    data = {"deformation": {
        "links": [{"direction": d.direction, "functorial": d.functorial} for d in links],
        "functorial": chain.functorial,
        "target_objects": [on(x) for x in sub.objects],
        "c0_whitehead": c0_res.status,
    }}

    if (chain.functorial and cert0 is not None) or ambient_cert is not None:
        hocr = build_ho_cr(cat, members, chain, cert0=cert0, ambient_cert=ambient_cert)
        inv = check_inverts_w(hocr, members)
        conj = check_conjugation(cat, members, chain, hocr, cert=ambient_cert, budget=budget)
        data["ho_cr"] = {
            "route": hocr.route,
            "arrows": len(hocr.category.morphisms),
            "homs": _hom_listing(hocr.category),
            "inverts_w": inv.ok,
            "inverts_w_witness": mn(inv.witness) if inv.witness is not None else None,
            "conjugation": {
                "status": conj.status,
                "route": conj.route,
                "unknown_pairs": _names(cat, conj.unknown_pairs),
            },
        }
    else:
        data["ho_cr"] = {
            "status": "unavailable",
            "reason": "requires functorial chain or ambient certificate",
        }
    return data


# Each stage's report keys, in emission order, and the function that
# reads them from the session.
_STAGES = {
    "validate": (("validate",), _validate_report),
    "axioms": (("axioms",), _axioms_report),
    "splits": (("splits",), _splits_report),
    "homotopy": (("homotopy",), _homotopy_report),
    "whitehead": (("whitehead", "whitehead_detail", "quotient"), _whitehead_report),
    "forks": (("forks",), _forks_report),
    "saturation": (("saturation",), _saturation_report),
    "deformation": (("deformation", "ho_cr"), _deformation_report),
}
STAGES = tuple(_STAGES)


def render_report(report: AnalysisReport, format: str = "text") -> str:
    """Serialize a report; json is byte-stable, text carries timings."""
    if format == "json":
        doc = {"input": report.path, "budget": report.budget, **report.data}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if format != "text":
        raise FormatError(f"unknown format {format!r}; use text or json")

    lines = [f"input: {report.path}", f"budget: {report.budget}"]
    order = [key for keys, _ in _STAGES.values() for key in keys]
    for key in order:
        if key not in report.data:
            continue
        suffix = ""
        if key in report.timings:
            suffix = f"  [{report.timings[key]:.1f} ms]"
        lines.append(_key_line(key, report.data[key], suffix))
    return "\n".join(lines) + "\n"


def _key_line(key, value, suffix="") -> str:
    """``key: value`` with ``suffix`` ending the key's own line."""
    rendered = _render_value(value)
    if "\n" in rendered:
        return f"{key}:{suffix}{rendered}"
    return f"{key}: {rendered}{suffix}"


def _render_value(value, indent=2) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "none"
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [_render_value(v, indent) for v in value]
        if all("\n" not in p for p in parts) and sum(len(p) for p in parts) < 60:
            return "[" + ", ".join(parts) + "]"
        pad = " " * indent
        items = []
        for p in parts:
            if "\n" in p:
                body = [ln for ln in p.split("\n") if ln.strip()]
                items.append(f"{pad}- " + ("\n  ".join([body[0].strip()] + body[1:])))
            else:
                items.append(f"{pad}- {p}")
        return "\n" + "\n".join(items)
    if isinstance(value, dict):
        if not value:
            return "{}"
        pad = " " * indent
        lines = []
        for k, v in value.items():
            rendered = _render_value(v, indent + 2)
            if "\n" in rendered:
                lines.append(f"{pad}{k}:{rendered}")
            else:
                lines.append(f"{pad}{k}: {rendered}")
        return "\n" + "\n".join(lines)
    return str(value)


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        for k, v in doc.items():
            sys.stdout.write(_key_line(k, v) + "\n")


def _cmd_analyze(args) -> int:
    stages = None
    if args.stages:
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
    report = run_analysis(args.file, budget=args.budget, stages=stages)
    sys.stdout.write(render_report(report, args.format))
    return 0


def _cmd_quotient(args) -> int:
    report = run_analysis(args.file, budget=args.budget, stages=("whitehead",))
    doc = {"input": report.path,
           "whitehead": report.data["whitehead"],
           "quotient": report.data["quotient"]}
    _emit(doc, args.format)
    return 0


def _cmd_zigzag(args) -> int:
    raw = load_file(args.file)
    cat = validate_category(raw)
    members = resolve_weqs(cat, raw.weak_equivalences)
    if args.equiv:
        z1 = zigzag_from_json(cat, members, read_json(args.equiv[0]))
        z2 = zigzag_from_json(cat, members, read_json(args.equiv[1]))
        res = bounded_equiv(cat, members, z1, z2, args.budget)
        doc = {"status": res.status,
               "trace": trace_to_json(cat, res.trace) if res.trace is not None else None}
        _emit(doc, args.format)
        return 0

    if args.src is None or args.dst is None:
        raise FormatError("zigzag needs --from and --to (or --equiv with two files)")
    z = connect(cat, members, known_name(args.src, cat.objects, "--from: unknown object"),
                known_name(args.dst, cat.objects, "--to: unknown object"))
    if z is None:
        _emit({"status": "unreachable"}, args.format)
    else:
        _emit({"status": "connected", "zigzag": zigzag_to_json(cat, z)}, args.format)
    return 0


def _cmd_deform(args) -> int:
    report = run_analysis(args.file, budget=args.budget, stages=("whitehead", "deformation"))
    doc = {"input": report.path,
           "whitehead": report.data["whitehead"],
           "deformation": report.data["deformation"],
           "ho_cr": report.data["ho_cr"]}
    _emit(doc, args.format)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hocat",
        description="Analyze a finite category with weak equivalences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="category document (JSON)")
        p.add_argument("--budget", type=int, default=None,
                       help="zigzag move budget (default: HOCAT_BUDGET or 8)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("analyze", help="run the full pipeline")
    common(p)
    p.add_argument("--stages", default=None,
                   help=f"comma-separated subset of: {', '.join(STAGES)}")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("quotient", help="build the homotopy quotient")
    common(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("zigzag", help="connect objects or compare zigzags")
    common(p)
    p.add_argument("--from", dest="src", default=None, help="source object")
    p.add_argument("--to", dest="dst", default=None, help="target object")
    p.add_argument("--equiv", nargs=2, metavar=("Z1", "Z2"), default=None,
                   help="two zigzag files to test for bounded equivalence")
    p.set_defaults(func=_cmd_zigzag)

    p = sub.add_parser("deform", help="validate deformation data and build Ho(C, r)")
    common(p)
    p.set_defaults(func=_cmd_deform)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.budget = budget_of(args.budget)
        return args.func(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValidationError, MoveError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
