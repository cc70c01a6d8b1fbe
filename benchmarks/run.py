"""Benchmark for hocat: four workloads, one operation at a time.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hocat is imported from its ``src``.
Without ``--workload`` every workload runs in turn, each in a process of
its own so that peak memory stays per workload.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the same figures
for a reader.  ``--trace 1`` reports the per-layer metrics instead of
the end-to-end ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

import checks
import gen
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

ZIGZAG_BUDGET = 3
CORPUS_SIZE = 2000
# The zigzag queries and the random corpus are drawn once from these
# fixed seeds; --seed then relabels them (carrier permutations, arrow
# names, declaration and table order), so every seed poses isomorphic
# problems and the spread between runs is the program's, not the draw's.
ZIGZAG_BASE_SEED = 1804
CORPUS_BASE_SEED = 4244


def import_hocat():
    """Import hocat from this checkout's sources, never from elsewhere."""
    global hocat
    if not os.path.isfile(os.path.join(ROOT, "src", "hocat", "cli.py")):
        sys.exit(f"error: no hocat sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hocat.cli
    import hocat.congruence
    import hocat.fincat
    import hocat.fixtures
    import hocat.homotopy
    import hocat.weq
    return hocat


hocat = None


class Op:
    """One operation: ``run`` returns its output, ``check`` raises
    :class:`checks.CheckError` when the output is wrong."""

    def __init__(self, run, check):
        self.run = run
        self.check = check


def cli_op(argv, check):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = hocat.cli.main(argv)
        checks.require(rc == 0, f"hocat {argv[0]} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue()
    return Op(run, check)


# -- workloads ---------------------------------------------------------------


def setup_all_analyze(seed, workdir):
    rng = random.Random(seed)
    fc = gen.all_functions((1, 2, 3), rng)
    path = os.path.join(workdir, "category.json")
    gen.write_json(path, fc.document(fc.arrows, rng))
    return [cli_op(["analyze", path, "--format", "json"],
                   lambda text: checks.check_all_functions_analysis(fc, json.loads(text)))]


def setup_all_quotient(seed, workdir):
    rng = random.Random(seed)
    fc = gen.all_functions((1, 2, 3, 4), rng)
    path = os.path.join(workdir, "category.json")
    gen.write_json(path, fc.document(fc.arrows, rng))

    def run():
        # The stages `hocat quotient` reports, as run_analysis calls them.
        fincat, weq, homotopy = hocat.fincat, hocat.weq, hocat.homotopy
        stages = {}
        raw = stages["load_file"] = fincat.load_file(path)
        cat = stages["validate_category"] = fincat.validate_category(raw)
        members = fincat.resolve_weqs(cat, raw.weak_equivalences)
        family = stages["check_weq_axioms"] = weq.check_weq_axioms(cat, raw.weak_equivalences)
        sg = stages["check_split_generated"] = weq.check_split_generated(family)
        stages["homotopy_congruence"] = homotopy.homotopy_congruence(cat, members)
        res = stages["certify_whitehead"] = homotopy.certify_whitehead(
            cat, members, family=family, splitgen=sg)
        stages["quotient"] = hocat.congruence.quotient(cat, res.congruence)
        return stages

    return [Op(run, lambda stages: checks.check_all_functions_library(fc, stages))]


class Query:
    def __init__(self, first, second, equivalent):
        self.first, self.second, self.equivalent = first, second, equivalent


def zigzag_queries(fc, sizes):
    """Per hom type (dom, cod): two equivalent pairs w⁻¹·(v∘f∘w)·v⁻¹
    against f, and one pair of distinct parallel arrows where there are
    two.  Arrows are keys of the canonical category."""
    rng = random.Random(ZIGZAG_BASE_SEED)
    perms = {d: [a for a in fc.arrows if a[0] == d and gen.is_bijection(a, sizes)]
             for d in range(len(sizes))}
    out = []
    for d in range(len(sizes)):
        for c in range(len(sizes)):
            hom = [a for a in fc.arrows if a[:2] == (d, c)]
            for _ in range(2):
                f, w, v = rng.choice(hom), rng.choice(perms[d]), rng.choice(perms[c])
                out.append(([(w, "bwd"), (gen.compose(v, gen.compose(f, w)), "fwd"),
                             (v, "bwd")], [(f, "fwd")], True))
            if len(hom) > 1:
                f, g = rng.sample(hom, 2)
                out.append(([(f, "fwd")], [(g, "fwd")], False))
    return out


def setup_iso_zigzag(seed, workdir):
    sizes = (1, 2, 3)
    base = gen.all_functions(sizes, random.Random(0))
    rng = random.Random(seed)
    perms = [rng.sample(range(n), n) for n in sizes]
    fc = gen.FunCat(sizes, [gen.relabel(a, perms) for a in base.arrows], rng)
    bijections = [a for a in fc.arrows if gen.is_bijection(a, sizes)]
    path = os.path.join(workdir, "category.json")
    gen.write_json(path, fc.document(bijections, rng))
    ops = []
    for k, (z1, z2, equivalent) in enumerate(zigzag_queries(base, sizes)):
        docs = [{"start": fc.objects[z[0][0][0] if z[0][1] == "fwd" else z[0][0][1]],
                 "steps": [[fc.name[gen.relabel(a, perms)], d] for a, d in z]}
                for z in (z1, z2)]
        files = []
        for side, doc in zip("ab", docs):
            files.append(os.path.join(workdir, f"q{k}{side}.json"))
            gen.write_json(files[-1], doc)
        query = Query(docs[0], docs[1], equivalent)
        ops.append(cli_op(["zigzag", path, "--equiv", *files, "--budget", str(ZIGZAG_BUDGET),
                           "--format", "json"],
                          lambda text, q=query: checks.check_zigzag(q, json.loads(text))))
    return ops


def corpus_categories():
    """The canonical corpus: (sizes, arrows, members) in four styles."""
    rng = random.Random(CORPUS_BASE_SEED)
    out = []
    for k in range(CORPUS_SIZE):
        sizes, arrows = gen.random_category(rng)
        out.append((sizes, arrows, gen.family(gen.STYLES[k % 4], sizes, arrows, rng)))
    return out


def analysis_op(path, table):
    first = []

    def check(text):
        checks.check_analysis(table, json.loads(text))
        digest = hashlib.sha256(text.encode()).digest()
        if first:
            checks.require(digest == first[0], f"{path}: a second call gave other bytes")
        else:
            first.append(digest)

    return cli_op(["analyze", path, "--format", "json"], check)


def setup_corpus(seed, workdir):
    rng = random.Random(seed)
    ops = []
    for name in hocat.fixtures.NAMES:
        path = os.path.join(ROOT, "src", "hocat", "fixtures", f"{name}.json")
        with open(path, encoding="utf-8") as fh:
            ops.append(analysis_op(path, checks.Table(json.load(fh))))
    for k, (sizes, arrows, members) in enumerate(corpus_categories()):
        perms = [rng.sample(range(n), n) for n in sizes]
        fc = gen.FunCat(sizes, [gen.relabel(a, perms) for a in arrows], rng)
        doc = fc.document([gen.relabel(a, perms) for a in members], rng)
        path = os.path.join(workdir, f"c{k}.json")
        gen.write_json(path, doc)
        ops.append(analysis_op(path, checks.Table(doc)))
    return ops


WORKLOADS = {
    "fun123-all-analyze": setup_all_analyze,
    "fun1234-all-quotient": setup_all_quotient,
    "fun123-iso-zigzag": setup_iso_zigzag,
    "corpus-small": setup_corpus,
}
# Set-up is repeated at least this often and for at least this long, and
# its median reported, so a set-up of a few milliseconds still reads steady.
SETUP_REPS, SETUP_SECONDS = 3, 0.5


# -- measurement -------------------------------------------------------------

# The speed of a shared machine drifts: a fixed pure-Python loop varies by
# ±30% over minutes here, and hocat's operations with it.  Every run
# therefore times that loop every 0.1 s throughout, and reports each time
# at the reference speed, the one at which the loop takes REFERENCE_MS, as
# read by the probe around that time.
REFERENCE_MS = 1.0
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW = 10  # readings before an interval that also judge its speed


def reference_loop():
    s = 0
    for i in range(10000):
        s += i * i % 7
    table = {}
    for i in range(500):
        table[(i, i + 1)] = i
    return s + len(table)


class SpeedProbe:
    """Times ``reference_loop`` from a timer signal while active.

    ``spent`` is the time taken by the probe itself, which the stopwatch
    subtracts from what it times."""

    def __init__(self):
        self.readings_ms = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.readings_ms.append(1000.0 * dt)
        self.spent += dt

    def __enter__(self):
        for _ in range(PROBE_WINDOW):
            self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Stopwatch:
    """Times intervals net of the probe's own time; ``stop`` returns the
    interval as measured and at the reference speed, judged by the probe
    readings taken during it and the PROBE_WINDOW before it.  ``now`` is
    the clock net of the probe, which spans use too."""

    def __init__(self, probe):
        self.probe = probe

    def now(self):
        while True:  # retry if the probe fired between the two reads
            spent = self.probe.spent
            t = time.perf_counter()
            if spent == self.probe.spent:
                return t - spent

    def start(self):
        self._first = len(self.probe.readings_ms)
        self._t0 = self.now()

    def stop(self):
        raw = self.now() - self._t0
        window = self.probe.readings_ms[max(0, self._first - PROBE_WINDOW):]
        return raw, raw * REFERENCE_MS / statistics.median(window)


class Run:
    def __init__(self):
        self.ms = []            # operations that passed their check, at reference speed
        self.raw_ms = []        # the same as measured
        self.traced_ms = []
        self.traced_ops = []
        self.attempted = 0
        self.failures = []


def measure(ops, seconds, clock, tracer=None):
    """Whole rounds over ``ops`` until ``seconds`` have passed, each
    operation timed on ``clock``.  With a tracer, rounds alternate
    untraced and traced, at least one of each."""
    run = Run()
    # Keep the benchmark's own objects out of the collector's scans, and
    # start every operation from a collected heap, as a fresh process would.
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for op in ops:
            gc.collect()
            index = run.attempted
            run.attempted += 1
            if traced:
                tracer.begin_op(index)
            clock.start()
            try:
                out = op.run()
            except Exception as exc:  # any error counts against the operation
                out = exc
            raw, scaled = clock.stop()
            if traced:
                tracer.end_op()
            try:
                if isinstance(out, Exception):
                    raise checks.CheckError(f"{type(out).__name__}: {out}")
                op.check(out)
            except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
                run.failures.append(f"op {index}: {exc}")
                continue
            finally:
                # An output kept alive into the next operation would count
                # toward that operation's peak memory.
                out = None
            if traced:
                run.traced_ms.append(1000.0 * scaled)
                run.traced_ops.append(index)
            else:
                run.ms.append(1000.0 * scaled)
                run.raw_ms.append(1000.0 * raw)
        if traced:
            tracer.remove()
        rounds += 1
        if time.perf_counter() - start >= seconds and (tracer is None or rounds >= 2):
            return run


def tail(ms):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(ms)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def run_workload(args):
    import_hocat()
    setup = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, args.workload)
    with SpeedProbe() as probe:
        clock = Stopwatch(probe)
        tracer = Tracer(clock.now) if args.trace else None
        origin = clock.now()
        setup_s, setup_raw_s = [], []
        while len(setup_s) < SETUP_REPS or sum(setup_raw_s) < SETUP_SECONDS:
            # Each set-up starts from the same heap, without its predecessor.
            ops = None
            gc.collect()
            gen.fresh_dir(workdir)
            clock.start()
            ops = setup(args.seed, workdir)
            raw, scaled = clock.stop()
            setup_raw_s.append(raw)
            setup_s.append(scaled)
        run = measure(ops, args.seconds, clock, tracer)
    if not run.ms:
        print("\n".join(["every operation failed:", *run.failures[:10]]), file=sys.stderr)
        return 1

    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"attempted {run.attempted}  failed {len(run.failures)}"]
    lines += [f"  FAILED {f}" for f in run.failures[:10]]
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "op_p50_ms": (statistics.median(run.ms), "ms"),
            "ops_per_s": (1000.0 * len(run.ms) / sum(run.ms), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        lines.append(f"  as measured: setup_s {statistics.median(setup_raw_s):.4f}  "
                     f"op_p50_ms {statistics.median(run.raw_ms):.4f}  "
                     f"ops_per_s {1000.0 * len(run.raw_ms) / sum(run.raw_ms):.4f}  "
                     f"(probe median {statistics.median(probe.readings_ms):.4f} ms "
                     f"over {len(probe.readings_ms)} readings)")
        if len(run.ms) >= 40:
            q, value = tail(run.ms)
            lines.append(f"  op_tail_ms (p{q:.1f} of {len(run.ms)} operations, "
                         f"not gated)  {value:.3f} ms")
    else:
        metrics = tracer.metrics(run.traced_ops)
        metrics["trace.overhead_ms"] = (
            statistics.median(run.traced_ms) - statistics.median(run.ms), "ms")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:32s} {value:.4f} {unit}")
    print("\n".join(lines))

    os.makedirs(os.path.join(WORK, "runs"), exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": setup_s, "setup_raw_s": setup_raw_s,
              "op_ms": run.ms, "op_raw_ms": run.raw_ms,
              "probe_ms": probe.readings_ms,
              "traced_op_ms": run.traced_ms, "failures": run.failures,
              "spans": tracer.records(origin) if tracer else []}
    path = os.path.join(WORK, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def run_all(args):
    """Every workload in turn, each in its own process."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
