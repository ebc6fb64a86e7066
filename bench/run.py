"""Request benchmark for troplin: one request is one CLI command on one
JSON payload, run in-process through troplin.cli.run.

    python3 bench/run.py --workload minors --seed 1 --seconds 30 --trace 0

Load is a closed loop with one client in one process: the next request
goes only when the last one has returned.  Each (workload, seed) pair
generates a fixed request stream before timing starts, sized so one
untraced pass takes about --seconds on the reference machine (2 vCPUs,
Python 3.11); a faster program finishes the same stream sooner.  The
program sees only the JSON text on a redirected stdin; responses are
captured from stdout and checked after timing against brute-force
references (checker.py).

Timings are speed-adjusted.  On a shared machine the same CPU-bound
work can take twice as long from one minute to the next, so between
requests (every PROBE_EVERY seconds) the benchmark times a fixed
pure-Python probe, and scales each request's latency by PROBE_REFERENCE
over the median probe time around it: latencies read as on the
reference machine at its usual speed.  Set-up time is scaled the same
way.  The unadjusted figures are printed in the report.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the stream once
with every layer's public functions wrapped (see tracer.py), once more
untraced to measure the tracing overhead, and prints per-layer metrics;
spans are written to .bench_out/.  The last line of stdout is always one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import bisect
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Untraced seconds one template copy takes on the reference machine; a
# stream holds round(--seconds / this) copies.
TEMPLATE_SECONDS = {"minors": 3.2, "subdivision": 5.0, "fiber": 1.9}

SETUP_STARTS = 15
PROBE_EVERY = 0.02      # seconds between speed probes
PROBE_WINDOW = 3        # probes taken on each side of a request
PROBE_REFERENCE = 0.6e-3  # probe() seconds on the reference machine
BENT_SQUARE = [["0", "0", "0", "0"], ["0", "0", "1", "1"]]
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import troplin.cli; sys.exit(troplin.cli.run(['stiefel']))")


class Result:
    __slots__ = ("code", "body", "error", "latency", "start")

    def __init__(self, code, body, error, latency, start):
        self.code = code
        self.body = body
        self.error = error
        self.latency = latency
        self.start = start


def probe():
    "Fixed pure-Python exact arithmetic, about half a millisecond."
    acc, seen = Fraction(0), {}
    for i in range(200):
        acc += Fraction(i % 7, 3)
        seen[i & 15] = acc
    return acc


def timed_probe():
    "(start, seconds) of one probe() call, with the collector held off."
    gc.disable()
    try:
        t0 = time.perf_counter()
        probe()
        return t0, time.perf_counter() - t0
    finally:
        gc.enable()


def execute(stream, tracer=None):
    """Send each request once, in order; return (results, wall, probes).

    Before the first request and then between requests, at most every
    PROBE_EVERY seconds, times one probe() call; probes are (start,
    seconds) pairs and fall outside every latency.
    """
    cli = sys.modules["troplin.cli"]
    real_in, real_out = sys.stdin, sys.stdout
    results, probes = [], []
    gc.collect()
    begin = time.perf_counter()
    probes.append(timed_probe())
    last = time.perf_counter()
    for i, req in enumerate(stream):
        if tracer is not None:
            tracer.request = i
        argv = [req.command, *req.argv]
        sys.stdin = io.StringIO(req.text)
        sys.stdout = out = io.StringIO()
        t0 = time.perf_counter()
        try:
            code, error = cli.run(argv), None
        except (Exception, SystemExit) as exc:
            code, error = None, exc
        finally:
            sys.stdin, sys.stdout = real_in, real_out
        t1 = time.perf_counter()
        results.append(Result(code, out.getvalue(), error, t1 - t0, t0))
        if t1 - last >= PROBE_EVERY:
            probes.append(timed_probe())
            last = time.perf_counter()
    wall = time.perf_counter() - begin
    return results, wall, probes


def speed_factors(results, probes):
    """Per request: reference probe time over the median of the probes
    just before and after it, i.e. how much faster than the reference
    machine the CPU ran at that moment."""
    starts = [t for t, _ in probes]
    out = []
    for res in results:
        k = bisect.bisect_left(starts, res.start)
        near = [dt for _, dt in probes[max(0, k - PROBE_WINDOW):
                                       k + PROBE_WINDOW]]
        out.append(PROBE_REFERENCE / statistics.median(near))
    return out


def check_all(stream, results, checker):
    "Indices and reasons of the requests answered wrongly."
    failures = []
    for i, (req, res) in enumerate(zip(stream, results)):
        if res.error is not None:
            failures.append((i, "raised %r" % (res.error,)))
            continue
        try:
            why = checker.check(req, res.code, res.body)
        except (KeyError, TypeError, ValueError, AttributeError,
                IndexError) as exc:
            why = "malformed response (%r)" % (exc,)
        if why:
            failures.append((i, why))
    return failures


def digest(results):
    h = hashlib.sha256()
    for res in results:
        h.update(res.body.encode("utf-8"))
    return h.hexdigest()


def measure_setup(checker, workloads):
    """Fresh interpreter -> import troplin.cli -> bent-square stiefel.

    One uncounted start first (it may compile bytecode), then the median
    of SETUP_STARTS timed starts, each preceded by three speed probes.
    Returns (raw median seconds, speed factor, failures).
    """
    req = workloads.Request(
        "stiefel", BENT_SQUARE,
        {"check": "valuation", "n": 4, "d": 2,
         "table": workloads.minors_table(
             [[Fraction(v) for v in r] for r in BENT_SQUARE])},
        (2, 4))
    times, probes, failures = [], [], []
    for k in range(SETUP_STARTS + 1):
        if k:
            probes.extend(timed_probe()[1] for _ in range(3))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
            input=req.text, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        why = checker.check(req, proc.returncode, proc.stdout)
        if why:
            failures.append((-1, "setup start: " + why))
        if k:
            times.append(elapsed)
    factor = PROBE_REFERENCE / statistics.median(probes)
    return statistics.median(times), factor, failures


def latency_stats(latencies):
    "Closed-loop rate, median and tail of one pass's latencies (seconds)."
    lat = sorted(latencies)
    n = len(lat)
    beyond = min(10, n - 1)
    return {"req_per_s": n / sum(lat),
            "p50_ms": statistics.median(lat) * 1e3,
            "tail_ms": lat[n - 1 - beyond] * 1e3,
            "tail_pct": 100.0 * (n - beyond) / n, "beyond": beyond, "n": n}


# ---------------------------------------------------------------- reports

def print_workload_report(workload, seed, reps, stream):
    n = len(stream)
    print("workload %s  seed %d  %d requests (%d template copies)"
          % (workload, seed, n, reps))
    mix = Counter(r.command for r in stream)
    print("  request mix: " + ", ".join(
        "%s %d (%.1f%%)" % (c, k, 100.0 * k / n)
        for c, k in sorted(mix.items())))
    shapes = Counter(r.shape for r in stream)
    print("  (d, n, C(n,d)) histogram: " + ", ".join(
        "(%d, %d, %d) %d" % (d, m, comb(m, d), k)
        for (d, m), k in sorted(shapes.items())))
    seen, repeats = set(), 0
    for r in stream:
        repeats += r.key in seen
        seen.add(r.key)
    outcomes = Counter(r.outcome for r in stream)
    print("  valuation repeats an earlier request: %.1f%%" % (
        100.0 * repeats / n))
    print("  expected errors: %.1f%%  expected false predicates: %.1f%%  "
          "decided by the checker: %.1f%%" % tuple(
              100.0 * outcomes[k] / n for k in ("error", "false", "either")))


def print_time_by_slot(stream, latencies):
    "Where the time goes: requests grouped by command and shape."
    groups = {}
    for req, lat in zip(stream, latencies):
        groups.setdefault(req.describe(), []).append(lat)
    total = sum(latencies)
    print("  time by request kind (count, median ms, share of time):")
    for what, lat in sorted(groups.items(), key=lambda kv: -sum(kv[1])):
        print("    %-40s %4d %10.2f %6.1f%%" % (
            what, len(lat), statistics.median(lat) * 1e3,
            100.0 * sum(lat) / total))


def print_failures(stream, failures):
    for i, why in failures:
        what = stream[i].describe() if i >= 0 else "setup"
        print("  FAILED request %d (%s): %s" % (i, what, why))


def emit(attempted, failed, metrics):
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def run_untraced(workloads, checker, stream):
    setup_raw, setup_factor, failures = measure_setup(checker, workloads)
    results, wall, probes = execute(stream)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factors = speed_factors(results, probes)
    adjusted = [r.latency * f for r, f in zip(results, factors)]
    raw = latency_stats([r.latency for r in results])
    lat = latency_stats(adjusted)
    t0 = time.perf_counter()
    failures += check_all(stream, results, checker)
    print("  responses checked in %.2f s" % (time.perf_counter() - t0))
    attempted = len(stream) + SETUP_STARTS + 1
    metrics = {
        "req_per_s": (lat["req_per_s"], "1/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_tail_ms": (lat["tail_ms"], "ms"),
        "success_ratio": (1.0 - len(failures) / attempted, "ratio"),
        "setup_s": (setup_raw * setup_factor, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print_time_by_slot(stream, adjusted)
    print_failures(stream, failures)
    print("  fail_ratio %d/%d = %.4f" % (len(failures), attempted,
                                         len(failures) / attempted))
    print("  latency_tail_ms is p%.1f: %d of %d samples beyond it" % (
        lat["tail_pct"], lat["beyond"], lat["n"]))
    print("  CPU speed factor: median %.3f over %d probes (%.3f at set-up);"
          " timed pass took %.2f s wall" % (
              statistics.median(factors), len(probes), setup_factor, wall))
    print("  unadjusted: req_per_s %.4f, latency_p50_ms %.4f, "
          "latency_tail_ms %.4f, setup_s %.6f" % (
              raw["req_per_s"], raw["p50_ms"], raw["tail_ms"], setup_raw))
    print("  response digest sha256 %s" % digest(results))
    for name, (value, unit) in metrics.items():
        print("  %-16s %14.6f %s" % (name, value, unit))
    emit(attempted, len(failures), metrics)


# name of each span whose self time / call count is a per-layer metric
SELF_SPANS = (
    "cli.run", "jsonio.parse", "jsonio.format",
    "trop.stiefel", "trop.min_assignment", "trop.stiefel_domain_witness",
    "valuated.check_pluecker", "valuated.membership",
    "valuated.stable_intersection", "valuated.v_contract",
    "valuated.ValuatedMatroid",
    "gammoid.gammoid_valuation", "gammoid.digraph_from_presentation",
    "gammoid.WeightedDigraph",
    "linprog.solve_lp",
    "valuated.cell_complex", "valuated.initial_matroid",
    "presentations.verify_presentation", "presentations.rinf_member",
    "valuated.maximal_cells",
    "matroid.Matroid", "matroid.connected_components", "matroid.flats",
    "matroid.cyclic_flats",
    "transversal.is_transversal", "transversal.verify_set_presentation",
    "presentations.distinguished", "presentations.presentation_space_member",
)
CALL_SPANS = (
    "trop.stiefel", "trop.min_assignment",
    "valuated.membership", "valuated.ValuatedMatroid",
    "linprog.solve_lp", "valuated.cell_vertex", "valuated.initial_matroid",
    "presentations.rinf_member", "valuated.maximal_cells",
    "matroid.Matroid", "matroid.polytope_face",
    "transversal.is_transversal", "transversal.verify_set_presentation",
    "presentations.presentation_fan_member",
)
# counters taken by tracer observers: (metric, span whose calls it is over)
RATIOS = (("linprog.solve_lp.decisive", "linprog.solve_lp"),
          ("valuated.maximal_cells.computed", "valuated.maximal_cells"),
          ("presentations.presentation_fan_member.accepted",
           "presentations.presentation_fan_member"))


def layer_metrics(tracer, results, factors):
    calls, self_s = tracer.summary(factors)
    metrics = {}
    for span in SELF_SPANS:
        metrics[span + ".self_s"] = (self_s.get(span, 0.0), "s")
    for span in CALL_SPANS:
        metrics[span + ".calls"] = (calls.get(span, 0), "count")
    metrics["jsonio.bytes_out"] = (
        sum(len(r.body.encode("utf-8")) for r in results), "B")
    metrics["linprog.solve_lp.rows"] = (
        tracer.counts["linprog.solve_lp.rows"], "count")
    for name, _ in RATIOS:
        metrics[name] = (tracer.counts[name], "count")
    metrics["gammoid.trop_minor.calls"] = (
        tracer.called_from("trop.trop_minor", "gammoid"), "count")
    metrics["presentations.sample_presentation.trials"] = (
        tracer.under("presentations.presentation_space_member",
                     "presentations.sample_presentation"), "count")
    return metrics, calls


def compare_counts(path, counts):
    "Report whether counts equal those of an earlier traced run, then save."
    if path.exists():
        earlier = json.loads(path.read_text())
        diff = sorted(k for k in set(earlier) | set(counts)
                      if earlier.get(k) != counts.get(k))
        if diff:
            print("  counts DIFFER from the earlier traced run with this "
                  "seed: " + ", ".join(diff))
        else:
            print("  counts repeat exactly the earlier traced run with "
                  "this seed (%d counters)" % len(counts))
    else:
        print("  no earlier traced run with this seed to compare counts")
    path.write_text(json.dumps(counts, sort_keys=True))


def run_traced(args, reps, checker, stream):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        traced, _, traced_probes = execute(stream, tracer)
    finally:
        tracer.restore()
    plain, _, plain_probes = execute(stream)
    failures = check_all(stream, traced, checker)
    failures += [(i, "untraced response differs from the traced one")
                 for i, (a, b) in enumerate(zip(traced, plain))
                 if a.body != b.body or a.code != b.code]
    traced_factors = speed_factors(traced, traced_probes)
    metrics, calls = layer_metrics(tracer, traced, traced_factors)

    print_failures(stream, failures)
    traced_rate = latency_stats([r.latency * f for r, f in
                                 zip(traced, traced_factors)])["req_per_s"]
    plain_rate = latency_stats([
        r.latency * f for r, f in
        zip(plain, speed_factors(plain, plain_probes))])["req_per_s"]
    print("  tracing overhead: req_per_s %.4f untraced, %.4f traced "
          "(difference %.4f, %.1f%%); %d spans" % (
              plain_rate, traced_rate, plain_rate - traced_rate,
              100.0 * (plain_rate - traced_rate) / plain_rate,
              len(tracer.names)))
    wall = sum(r.latency for r in traced)
    _, self_s = tracer.summary()
    in_run = sum(tracer.ends[i] - tracer.starts[i]
                 for i, n in enumerate(tracer.names) if n == "cli.run")
    print("  trace coverage: %.2f%% of request wall time outside every "
          "span; %.2f%% in cli.run self time (argument parsing, reading "
          "the payload, and any call no wrapper covers)" % (
              100.0 * (wall - in_run) / wall,
              100.0 * self_s.get("cli.run", 0.0) / wall))
    print("  digest traced %s, untraced %s" % (digest(traced),
                                               digest(plain)))
    for name, base in RATIOS:
        print("  %s: %d of %d calls" % (name, metrics[name][0],
                                        calls.get(base, 0)))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-52s %16.6f %s" % (name, value, unit))
    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-reps%d" % (args.workload, args.seed, reps)
    tracer.write(OUT / (stem + "-spans.csv"))
    counts = {k: v for k, (v, u) in metrics.items() if u != "s"}
    compare_counts(OUT / (stem + "-counts.json"), counts)
    emit(len(stream), len(failures), metrics)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(TEMPLATE_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "troplin" / "cli.py").is_file():
        print("bench: no program at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import troplin.cli  # noqa: F401  (execute() looks it up by name)
    import workloads
    from checker import Checker

    reps = max(1, round(args.seconds / TEMPLATE_SECONDS[args.workload]))
    t0 = time.perf_counter()
    stream = workloads.build_stream(args.workload, args.seed, reps)
    print_workload_report(args.workload, args.seed, reps, stream)
    print("  stream generated in %.2f s" % (time.perf_counter() - t0))
    if args.trace:
        run_traced(args, reps, Checker(), stream)
    else:
        run_untraced(workloads, Checker(), stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
