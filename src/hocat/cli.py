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
the move traces instead.  Reports have their own JSON writer, byte for
byte ``json.dumps(doc, indent=2, sort_keys=True)``: CPython uses its C
encoder only without ``indent``, and the pure-Python one it falls back
to took about a sixth of an analyze call on a small document.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from .deformation import (build_ho_cr, check_conjugation, check_inverts_w,
                          compose_chain, validate_deformation)
from .errors import FormatError, HocatError, ValidationError
from .fincat import (FinCat, known_name, load_file, read_json, resolve_weqs,
                     subcategory, validate_category)
from .homotopy import Analysis
from .zigzag import bounded_equiv, connect, trace_to_json, zigzag_from_json, zigzag_to_json

__all__ = ["AnalysisReport", "run_analysis", "render_report", "main", "STAGES"]


def budget_of(value=None) -> int:
    """The zigzag move budget: ``value``, else HOCAT_BUDGET, else 8.

    Anything but a nonnegative integer is malformed input; a bool is
    refused too.
    """
    if value is None:
        raw = os.environ.get("HOCAT_BUDGET", "8")
        try:
            value = int(raw)
        except ValueError:
            raise FormatError(f"HOCAT_BUDGET must be an integer, got {raw!r}") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"budget must be an integer, got {value!r}")
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
    on = cat.obj_name
    return {f"{on(x)}>{on(y)}": _names(cat, cat.hom(x, y)) for x, y in cat.hom_pairs()}


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
        q = session.congruence.quotient
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
        z = wres.witness
        detail = {"witness": {
            "source": cat.obj_name(z.source),
            "target": cat.obj_name(z.target),
            "zigzag": zigzag_to_json(cat, z),
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
            "rc_transitive": session.rc_transitive(side).ok,
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
    ambient = None  # the first link's stage is the whole category
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

    data = {"deformation": {
        "links": [{"direction": d.direction, "functorial": d.functorial} for d in links],
        "functorial": chain.functorial,
        "target_objects": [on(x) for x in chain.target.objects],
        "c0_whitehead": chain.target_whitehead.status,
    }}

    # a certificate is None unless its result is certified
    ambient_cert = session.whitehead.certificate
    hocr = build_ho_cr(chain, cert0=chain.target_whitehead.certificate, ambient_cert=ambient_cert)
    if hocr is None:
        data["ho_cr"] = {
            "status": "unavailable",
            "reason": "requires functorial chain or ambient certificate",
        }
        return data
    inv = check_inverts_w(hocr)
    conj = check_conjugation(hocr, cert=ambient_cert, budget=budget)
    data["ho_cr"] = {
        "route": hocr.route,
        "arrows": len(hocr.category.morphisms),
        "homs": _hom_listing(hocr.category),
        "inverts_w": inv is None,
        "inverts_w_witness": None if inv is None else mn(inv),
        "conjugation": {
            "status": conj.status,
            "route": conj.route,
            "unknown_pairs": _names(cat, conj.unknown_pairs),
        },
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
    return _render({"input": report.path, "budget": report.budget, **report.data},
                   format, report.timings)


def _render(doc: dict, fmt: str, timings=None) -> str:
    """``doc`` as JSON, or as text with one ``key: value`` line per key,
    in order; a key's timing in ``timings`` ends its own line."""
    if fmt == "json":
        return _json(doc) + "\n"
    if fmt != "text":
        raise FormatError(f"unknown format {fmt!r}; use text or json")
    timings = timings or {}
    return "".join(
        _key_line(key, value, f"  [{timings[key]:.1f} ms]" if key in timings else "") + "\n"
        for key, value in doc.items())


def _key_line(key, value, suffix="", indent=2) -> str:
    """``key: value`` with ``suffix`` ending the key's own line and a
    multi-line value's lines indented by ``indent``."""
    rendered = _render_value(value, indent)
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
        return "".join("\n" + _key_line(pad + k, v, indent=indent + 2)
                       for k, v in value.items())
    return str(value)


def _json(value, pad="\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for dicts with str
    keys, lists, tuples and scalars, with ``pad`` the line break and
    indent before ``value``'s closing bracket.  Strings are quoted by
    the C function ``json`` itself uses."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return ("{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _json(value[k], inner) for k in sorted(value)]) + pad + "}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = (map(_quote, value) if all(type(v) is str for v in value)
                 else [_json(v, inner) for v in value])
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return repr(value)
    return json.dumps(value)


def _cmd_analyze(args) -> int:
    stages = None
    if args.stages is not None:
        stages = [s.strip() for s in args.stages.split(",") if s.strip()]
        if not stages:
            raise FormatError(f"--stages names no stage; stages are {', '.join(STAGES)}")
    report = run_analysis(args.file, budget=args.budget, stages=stages)
    sys.stdout.write(render_report(report, args.format))
    return 0


def _cmd_stages(args, stages, keys) -> int:
    """Run ``stages`` and print the input path and the report's ``keys``."""
    report = run_analysis(args.file, budget=args.budget, stages=stages)
    doc = {"input": report.path, **{key: report.data[key] for key in keys}}
    sys.stdout.write(_render(doc, args.format))
    return 0


def _cmd_zigzag(args) -> int:
    if args.equiv and (args.src is not None or args.dst is not None):
        raise FormatError("--equiv and --from/--to exclude each other")
    raw = load_file(args.file)
    cat = validate_category(raw)
    members = resolve_weqs(cat, raw.weak_equivalences)
    if args.equiv:
        z1 = zigzag_from_json(cat, members, read_json(args.equiv[0]))
        z2 = zigzag_from_json(cat, members, read_json(args.equiv[1]))
        res = bounded_equiv(cat, members, z1, z2, args.budget)
        doc = {"status": res.status,
               "trace": trace_to_json(cat, res.trace) if res.trace is not None else None}
        sys.stdout.write(_render(doc, args.format))
        return 0

    if args.src is None or args.dst is None:
        raise FormatError("zigzag needs --from and --to (or --equiv with two files)")
    z = connect(cat, members, known_name(args.src, cat.objects, "--from: unknown object"),
                known_name(args.dst, cat.objects, "--to: unknown object"))
    doc = ({"status": "unreachable"} if z is None
           else {"status": "connected", "zigzag": zigzag_to_json(cat, z)})
    sys.stdout.write(_render(doc, args.format))
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
    p.set_defaults(func=functools.partial(_cmd_stages, stages=("whitehead",),
                                          keys=("whitehead", "quotient")))

    p = sub.add_parser("zigzag", help="connect objects or compare zigzags")
    common(p)
    p.add_argument("--from", dest="src", default=None, help="source object")
    p.add_argument("--to", dest="dst", default=None, help="target object")
    p.add_argument("--equiv", nargs=2, metavar=("Z1", "Z2"), default=None,
                   help="two zigzag files to test for bounded equivalence")
    p.set_defaults(func=_cmd_zigzag)

    p = sub.add_parser("deform", help="validate deformation data and build Ho(C, r)")
    common(p)
    p.set_defaults(func=functools.partial(_cmd_stages, stages=("whitehead", "deformation"),
                                          keys=("whitehead", "deformation", "ho_cr")))

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.budget = budget_of(args.budget)
        return args.func(args)
    except HocatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, FormatError) else 3


if __name__ == "__main__":
    sys.exit(main())
