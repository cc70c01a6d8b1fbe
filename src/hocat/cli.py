"""File-driven front end: load a category document, analyze, report.

The analyze pipeline runs validate, axioms, splits, homotopy, whitehead,
forks, saturation, and deformation in that order; a failed axiom check
skips everything downstream rather than aborting, because analysis
verdicts are not process errors.  Only unreadable or malformed input
(exit 2) and law violations (exit 3) abort.

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

from .congruence import quotient
from .deformation import (build_ho_cr, check_conjugation, check_inverts_w,
                          compose_chain, validate_deformation)
from .errors import FormatError, MoveError, ValidationError
from .fincat import FinCat, load_file, resolve_weqs, subcategory, validate_category
from .homotopy import (certify_whitehead, check_common_fork, check_fork_condition,
                       check_rc_transitive, check_saturation, homotopy_congruence)
from .weq import check_split_generated, check_weq_axioms
from .zigzag import (BWD, FWD, Zigzag, bounded_equiv, make_zigzag, trace_to_json,
                     zigzag_from_json, zigzag_to_json)

__all__ = ["AnalysisReport", "run_analysis", "render_report", "main", "STAGES"]

STAGES = ("validate", "axioms", "splits", "homotopy", "whitehead",
          "forks", "saturation", "deformation")

# report keys produced by each stage, in emission order
_STAGE_KEYS = {
    "validate": ("validate",),
    "axioms": ("axioms",),
    "splits": ("splits",),
    "homotopy": ("homotopy",),
    "whitehead": ("whitehead", "whitehead_detail", "quotient"),
    "forks": ("forks",),
    "saturation": ("saturation",),
    "deformation": ("deformation", "ho_cr"),
}


def default_budget() -> int:
    raw = os.environ.get("HOCAT_BUDGET")
    if raw is None:
        return 8
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"HOCAT_BUDGET must be an integer, got {raw!r}") from None


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


def run_analysis(path, options=None) -> AnalysisReport:
    """Run the staged pipeline over one file and collect the report.

    options: budget (int, default from HOCAT_BUDGET or 8) and stages (a
    subset of STAGES to emit; unselected stages read "skipped").
    validate, axioms, splits and whitehead always run, since later
    stages build on them; homotopy, forks, saturation and deformation
    run only when selected.  The validate timing includes loading the
    file.
    """
    opts = dict(options or {})
    budget = opts.get("budget")
    if budget is None:
        budget = default_budget()
    selected = opts.get("stages")
    if selected is not None:
        selected = tuple(selected)
        unknown = [s for s in selected if s not in STAGES]
        if unknown:
            raise FormatError(f"unknown stage {unknown[0]!r}; stages are {', '.join(STAGES)}")

    data: dict = {}
    timings: dict = {}

    def timed(stage):
        timings[stage] = time.perf_counter()

    def done(stage):
        timings[stage] = (time.perf_counter() - timings[stage]) * 1000.0

    def wanted(stage):
        if selected is None or stage in selected:
            return True
        for key in _STAGE_KEYS[stage]:
            data[key] = "skipped"
        return False

    timed("validate")
    raw = load_file(path)
    cat = validate_category(raw)
    members = resolve_weqs(cat, raw.weak_equivalences)
    mn, on = cat.mor_name, cat.obj_name
    data["validate"] = {
        "objects": len(cat.objects),
        "morphisms": len(cat.morphisms),
        "weak_equivalences": _names(cat, sorted(members)),
    }
    done("validate")

    timed("axioms")
    family = check_weq_axioms(cat, raw.weak_equivalences)
    rep = family.report
    data["axioms"] = {
        "ok": rep.axioms_ok,
        "two_of_three": rep.two_of_three_ok,
        "two_of_three_witness": _names(cat, rep.two_of_three_witness) if rep.two_of_three_witness else None,
        "weak_invertibility": rep.weak_invertibility_ok,
        "weak_invertibility_witness": _names(cat, rep.weak_invertibility_witness) if rep.weak_invertibility_witness else None,
        "inserted_identities": _names(cat, rep.inserted_identities),
    }
    done("axioms")

    if not rep.axioms_ok:
        for stage in ("splits", "homotopy", "whitehead", "forks", "saturation"):
            for key in _STAGE_KEYS[stage]:
                data[key] = "skipped"
        data["deformation"] = "skipped" if raw.deformation else "absent"
        data["ho_cr"] = data["deformation"]
        return _finish(path, budget, data, timings, selected)

    timed("splits")
    sg = check_split_generated(family)
    if sg.generated:
        cert = sg.certificate
        data["splits"] = {
            "generated": True,
            "splits": [[mn(m), mn(inv), kind] for m, inv, kind in cert.split_weqs],
            "decompositions": {mn(m): _names(cat, parts)
                               for m, parts in sorted(cert.decompositions.items())},
        }
    else:
        data["splits"] = {"generated": False, "missing": mn(sg.missing)}
    done("splits")

    if wanted("homotopy"):
        timed("homotopy")
        hcong = homotopy_congruence(cat, members)
        data["homotopy"] = {
            "classes": len(hcong.classes),
            "nonsingleton_classes": [_names(cat, cls) for cls in hcong.nonsingleton_classes()],
        }
        done("homotopy")

    timed("whitehead")
    wres = certify_whitehead(cat, members, family=family, splitgen=sg)
    data["whitehead"] = wres.status
    if wres.certified:
        data["whitehead_detail"] = {
            "inverses": {mn(w): mn(g) for w, g in sorted(wres.certificate.inverse_table.items())},
        }
        q = quotient(cat, wres.congruence)
        data["quotient"] = {
            "objects": len(q.quotient.objects),
            "morphisms": len(q.quotient.morphisms),
            "homs": _hom_listing(q.quotient),
        }
    elif wres.status == "failed":
        w = wres.witness
        data["whitehead_detail"] = {
            "witness": {
                "source": on(w.source),
                "target": on(w.target),
                "zigzag": zigzag_to_json(cat, w.zigzag),
            },
        }
        data["quotient"] = "skipped"
    else:
        data["whitehead_detail"] = {}
        data["quotient"] = "skipped"
    done("whitehead")

    if wanted("forks"):
        timed("forks")
        forks = {}
        for side in ("left", "right"):
            fc = check_fork_condition(cat, members, side)
            cf = check_common_fork(cat, members, side)
            tr_ok, _ = check_rc_transitive(cat, members, side)
            forks[side] = {
                "fork_condition": fc.ok,
                "fork_counterexample": _names(cat, fc.counterexample) if fc.counterexample else None,
                "common_fork": cf.ok,
                "rc_transitive": tr_ok,
            }
        data["forks"] = forks
        done("forks")

    if wanted("saturation"):
        timed("saturation")
        if wres.certified:
            sat = check_saturation(cat, members, wres.certificate)
            data["saturation"] = {
                "saturated": sat.saturated,
                "violations": _names(cat, sat.violations),
                "predicted": sat.predicted,
                "weak_invertibility": sat.weak_invertibility,
                "split_generated": sat.split_generated,
                "fork_left": sat.fork_left,
                "fork_right": sat.fork_right,
            }
        else:
            data["saturation"] = "skipped"
        done("saturation")

    if wanted("deformation"):
        timed("deformation")
        if raw.deformation is None:
            data["deformation"] = "absent"
            data["ho_cr"] = "absent"
        else:
            _deformation_stage(cat, members, raw, wres, budget, data)
        done("deformation")

    return _finish(path, budget, data, timings, selected)


def _deformation_stage(cat, members, raw, wres, budget, data):
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
    c0_res = certify_whitehead(sub.cat, sub_members)
    cert0 = c0_res.certificate if c0_res.certified else None
    ambient_cert = wres.certificate if wres.certified else None

    data["deformation"] = {
        "links": [{"direction": d.direction, "functorial": d.functorial} for d in links],
        "functorial": chain.functorial,
        "target_objects": [on(x) for x in sub.objects],
        "c0_whitehead": c0_res.status,
    }

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


def _finish(path, budget, data, timings, selected) -> AnalysisReport:
    if selected is not None:
        keep = {key for stage in selected for key in _STAGE_KEYS[stage]}
        for stage in STAGES:
            for key in _STAGE_KEYS[stage]:
                if key in data and key not in keep:
                    data[key] = "skipped"
    return AnalysisReport(path=str(path), budget=budget, data=data, timings=timings)


def render_report(report: AnalysisReport, format: str = "text") -> str:
    """Serialize a report; json is byte-stable, text carries timings."""
    if format == "json":
        doc = {"input": report.path, "budget": report.budget, **report.data}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if format != "text":
        raise FormatError(f"unknown format {format!r}; use text or json")

    lines = [f"input: {report.path}", f"budget: {report.budget}"]
    order = [key for stage in STAGES for key in _STAGE_KEYS[stage]]
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


def _load_category(path):
    raw = load_file(path)
    cat = validate_category(raw)
    return cat, resolve_weqs(cat, raw.weak_equivalences), raw


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise FormatError(f"cannot read {path}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: not valid JSON: {e}") from None


def _find_zigzag(cat: FinCat, members, src: int, dst: int) -> Zigzag | None:
    """Breadth-first connection through arrows and backward members."""
    parent = {src: None}
    queue = [src]
    while queue:
        nxt = []
        for at in queue:
            if at == dst:
                steps = []
                while parent[at] is not None:
                    at, step = parent[at]
                    steps.append(step)
                return make_zigzag(cat, members, src, reversed(steps))
            for m in cat.outgoing[at]:
                if cat.cod(m) not in parent:
                    parent[cat.cod(m)] = (at, (m, FWD))
                    nxt.append(cat.cod(m))
            for m in cat.incoming[at]:
                if m in members and cat.dom(m) not in parent:
                    parent[cat.dom(m)] = (at, (m, BWD))
                    nxt.append(cat.dom(m))
        queue = nxt
    return None


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
    report = run_analysis(args.file, {"budget": args.budget, "stages": stages})
    sys.stdout.write(render_report(report, args.format))
    return 0


def _cmd_quotient(args) -> int:
    report = run_analysis(args.file, {
        "budget": args.budget,
        "stages": ("validate", "axioms", "splits", "homotopy", "whitehead"),
    })
    doc = {"input": report.path,
           "whitehead": report.data["whitehead"],
           "quotient": report.data["quotient"]}
    _emit(doc, args.format)
    return 0


def _cmd_zigzag(args) -> int:
    cat, members, _ = _load_category(args.file)
    budget = args.budget if args.budget is not None else default_budget()

    if args.equiv:
        z1 = zigzag_from_json(cat, members, _read_json(args.equiv[0]))
        z2 = zigzag_from_json(cat, members, _read_json(args.equiv[1]))
        res = bounded_equiv(cat, members, z1, z2, budget)
        doc = {"status": res.status,
               "trace": trace_to_json(cat, res.trace) if res.trace is not None else None}
        _emit(doc, args.format)
        return 0

    if args.src is None or args.dst is None:
        raise FormatError("zigzag needs --from and --to (or --equiv with two files)")
    z = _find_zigzag(cat, members, cat.obj(args.src), cat.obj(args.dst))
    if z is None:
        _emit({"status": "unreachable"}, args.format)
    else:
        _emit({"status": "connected", "zigzag": zigzag_to_json(cat, z)}, args.format)
    return 0


def _cmd_deform(args) -> int:
    report = run_analysis(args.file, {
        "budget": args.budget,
        "stages": ("validate", "axioms", "whitehead", "deformation"),
    })
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
        return args.func(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValidationError, MoveError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
