"""Spans around the calls into hocat's layers, recorded from outside.

``Tracer.install`` replaces each layer's public functions, wherever a
hocat module holds a reference to them, with a wrapper that records a
span: name, start, end, the enclosing span and the operation it belongs
to.  Nested spans give self time and call counts without any change to
hocat.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# The public functions timed in each layer, by defining module.
LAYERS = {
    "hocat.fincat": ("load_file", "validate_category", "opposite"),
    "hocat.weq": ("check_weq_axioms", "check_split_generated"),
    "hocat.congruence": ("least_congruence", "quotient", "sigma_of"),
    "hocat.homotopy": ("r_left", "r_right", "r_left_comp", "r_right_comp",
                       "homotopy_congruence", "check_fork_condition",
                       "check_common_fork", "check_rc_transitive",
                       "certify_whitehead", "check_saturation"),
    "hocat.zigzag": ("bounded_equiv", "nonfullness_witness"),
    "hocat.deformation": ("validate_deformation", "compose_chain", "build_ho_cr",
                          "check_inverts_w", "check_conjugation"),
    "hocat.cli": ("main", "run_analysis", "render_report"),
}

RELATIONS = {"r_left", "r_right", "r_left_comp", "r_right_comp"}

# metric -> (how, span names, status filter on bounded_equiv results)
#   ms:    time inside the named spans, nested repeats counted once
#   calls: number of spans
#   self:  time inside the named spans minus their child spans
#   note:  sum of the count each span noted from its result
METRICS = {
    "fincat.load_ms": ("ms", {"load_file"}, None),
    "fincat.validate_ms": ("ms", {"validate_category"}, None),
    "fincat.opposite_ms": ("ms", {"opposite"}, None),
    "fincat.opposite_calls": ("calls", {"opposite"}, None),
    "weq.axioms_ms": ("ms", {"check_weq_axioms"}, None),
    "weq.axioms_calls": ("calls", {"check_weq_axioms"}, None),
    "weq.splits_ms": ("ms", {"check_split_generated"}, None),
    "weq.splits_calls": ("calls", {"check_split_generated"}, None),
    "congruence.least_ms": ("ms", {"least_congruence"}, None),
    "congruence.least_calls": ("calls", {"least_congruence"}, None),
    "congruence.quotient_ms": ("ms", {"quotient"}, None),
    "congruence.quotient_calls": ("calls", {"quotient"}, None),
    "congruence.sigma_ms": ("ms", {"sigma_of"}, None),
    "congruence.merges": ("note", {"homotopy_congruence"}, None),
    "homotopy.relations_ms": ("ms", RELATIONS, None),
    "homotopy.relations_calls": ("calls", RELATIONS, None),
    "homotopy.fork_condition_ms": ("ms", {"check_fork_condition"}, None),
    "homotopy.fork_condition_calls": ("calls", {"check_fork_condition"}, None),
    "homotopy.common_fork_ms": ("ms", {"check_common_fork"}, None),
    "homotopy.rc_transitive_ms": ("ms", {"check_rc_transitive"}, None),
    "homotopy.whitehead_self_ms": ("self", {"certify_whitehead"}, None),
    "homotopy.saturation_self_ms": ("self", {"check_saturation"}, None),
    "zigzag.pair_unknown_ms": ("ms", {"bounded_equiv"}, "unknown"),
    "zigzag.pair_equivalent_ms": ("ms", {"bounded_equiv"}, "equivalent"),
    "zigzag.trace_moves": ("note", {"bounded_equiv"}, "equivalent"),
    "zigzag.nonfullness_ms": ("ms", {"nonfullness_witness"}, None),
    "deformation.validate_ms": ("ms", {"validate_deformation", "compose_chain"}, None),
    "deformation.ho_cr_ms": ("ms", {"build_ho_cr", "check_inverts_w"}, None),
    "deformation.conjugation_ms": ("ms", {"check_conjugation"}, None),
    "cli.self_ms": ("self", {"main", "run_analysis"}, None),
    "cli.render_ms": ("ms", {"render_report"}, None),
}


def _note(name, args, result):
    """What a span keeps from its call: a status and a count."""
    if name == "bounded_equiv":
        return result.status, len(result.trace.moves) if result.trace is not None else 0
    if name == "homotopy_congruence":
        return None, len(args[0].morphisms) - len(result.classes)
    return None


class Tracer:
    """Span recorder; ``install`` before the traced calls, ``remove`` after."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent, op, note]
        self.related_pairs = {}  # op -> distinct pairs of the closed one-sided relations
        self._stack = []
        self._op = -1
        self._forks = {}
        self._patched = []
        self._originals = {}

    def install(self):
        wrappers = {}
        for modname, names in LAYERS.items():
            module = sys.modules[modname]
            for name in names:
                fn = getattr(module, name)
                self._originals[name] = fn
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "hocat" and not modname.startswith("hocat."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def remove(self):
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def begin_op(self, op):
        self._op = op
        self._forks = {}

    def end_op(self):
        """Close the operation; count the pairs its fork checks quantified
        over, calling the unwrapped relations so no span records it."""
        if self._forks:
            total = 0
            for cat, weqs, side in self._forks.values():
                fn = self._originals["r_left_comp" if side == "left" else "r_right_comp"]
                total += len(fn(cat, weqs).distinct_pairs)
            self.related_pairs[self._op] = total
        self._forks = {}
        self._op = -1

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                stack.pop()
            span[5] = _note(name, args, result)
            if name == "check_fork_condition":
                side = args[2] if len(args) > 2 else kwargs.get("side", "left")
                tracer._forks.setdefault((id(args[0]), side), (args[0], args[1], side))
            return result

        return wrapper

    def metrics(self, ops):
        """Per-layer metrics as {name: (value, unit)}: for each, the median
        over the operations in ``ops`` that entered that layer, or 0 when
        none did."""
        wanted = set(ops)
        by_op = {op: [] for op in wanted}
        for i, span in enumerate(self.spans):
            if span[4] in wanted:
                by_op[span[4]].append(i)
        child_ms = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ms[span[3]] += span[2] - span[1]

        def outermost(i, names):
            parent = self.spans[i][3]
            while parent >= 0:
                if self.spans[parent][0] in names:
                    return False
                parent = self.spans[parent][3]
            return True

        out = {}
        for metric, (how, names, status) in METRICS.items():
            values = []
            for op, idxs in by_op.items():
                hit = [i for i in idxs if self.spans[i][0] in names
                       and (status is None or self.spans[i][5][0] == status)]
                if not hit:
                    continue
                if how == "calls":
                    values.append(len(hit))
                elif how == "note":
                    values.append(sum(self.spans[i][5][1] for i in hit))
                elif how == "self":
                    values.append(1000.0 * sum(self.spans[i][2] - self.spans[i][1] - child_ms[i]
                                               for i in hit))
                else:
                    values.append(1000.0 * sum(self.spans[i][2] - self.spans[i][1]
                                               for i in hit if outermost(i, names)))
            out[metric] = (statistics.median(values) if values else 0,
                           "count" if how in ("calls", "note") else "ms")
        pairs = [v for op, v in self.related_pairs.items() if op in wanted]
        out["homotopy.related_pairs"] = (statistics.median(pairs) if pairs else 0, "count")
        return out

    def records(self, origin):
        """Spans as JSON-ready lists, times in ms from ``origin``."""
        return [[name, round(1000.0 * (start - origin), 4), round(1000.0 * (end - origin), 4),
                 parent, op, list(note) if note else None]
                for name, start, end, parent, op, note in self.spans]
