"""psbe benchmark: run one workload, check every answer, print the metrics.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

Workloads (see NOTES.md for why each was chosen): fixtures, products,
search, cli.  Each is a closed loop with one client in one process: the
workload's fixed job list runs in rounds, the seed only permutes the job
order within a round, and rounds start while the run is within its
``--seconds``.

With ``--trace 0`` every round runs untraced and the last stdout line
carries the end-to-end metrics.  With ``--trace 1`` rounds alternate
untraced / traced; the traced rounds record spans and counts around
psbe's public functions (see tracer.py) and the last line carries the
per-layer metrics.  Either way the lines before it print both tables by
name, unit and sample count.  Every time is scaled by the host's measured
slow-down (see speed.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import workloads as wl
from speed import SLACK_S, SpeedSampler
from tracer import END, NAME, START, TAG, Tracer, has_ancestor, install_psbe, \
    self_times

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
SETUP_PROBES = 20         # fresh interpreters timing set-up, besides the run's own
STARTUP_PROBES = 5        # bare / import-only interpreters for cli.* layer metrics
MIN_ROUNDS = 2            # a products round takes 10-18 s

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB"),
              ("pass_ratio", "ratio"))
LAW_FAMILIES = ("A", "AX", "BCK", "BE", "BND", "INV", "L4", "L6", "M", "P3",
                "P3b", "P3f", "P4", "P5", "P6", "PP")
CLI_SUBCOMMANDS = ("check", "mop", "ds", "gen", "quotient", "verify", "search")
PER_LAYER = (
    ("quantifiers.enumerate_mop.calls", "count"),
    ("quantifiers.enumerate_mop.self_ms", "ms"),
    ("quantifiers.check_monadic.calls", "count"),
    ("quantifiers.mop.yield", "ratio"),
    ("deduction.enumerate_congruences.calls", "count"),
    ("deduction.enumerate_congruences.self_ms", "ms"),
    ("deduction.partitions_scanned", "count"),
    ("deduction.congruence.yield", "ratio"),
    ("deduction.enumerate_ds.calls", "count"),
    ("deduction.enumerate_ds.self_ms", "ms"),
    ("deduction.generated_ds.self_ms", "ms"),
    ("deduction.quotient.self_ms", "ms"),
    ("laws.verify_suite.self_ms", "ms"),
    ("laws.evaluate_law.calls", "count"),
    ("laws.instances", "count"),
    *((f"laws.family.{f}.ms", "ms") for f in LAW_FAMILIES),
    ("laws.search.self_ms", "ms"),
    ("laws.search.candidates", "count"),
    ("laws.search.candidates_per_s", "1/s"),
    ("laws.search.models", "count"),
    ("laws.search.yield", "ratio"),
    ("classify.calls", "count"),
    ("classify.self_ms", "ms"),
    ("algebra.parse.calls", "count"),
    ("algebra.parse.ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("cli.import_ms", "ms"),
    *((f"cli.cmd.{c}.ms", "ms") for c in CLI_SUBCOMMANDS),
    ("known_defects", "count"),
    ("trace.overhead", "ratio"),
)
# per-layer metrics that must repeat exactly between traced rounds and runs
EXACT = {n for n, u in PER_LAYER if u == "count" or n.endswith(".yield")}


def digest(canonical) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------ one job

def execute(job, tracer, golden, sampler):
    """Run one job and check its answer.

    Returns ((start ns, end ns, own ns), canonical, problems); only
    job.run is timed, and the tracer is enabled only around it."""
    def call():
        try:
            return job.run(tracer), None
        except Exception as exc:       # a crash is a failed job, not a stop
            return None, exc
    if tracer is not None:
        tracer.job, tracer.enabled = job.name, True
    t0, t1, ns, (result, error) = sampler.time(call, job.in_child)
    if tracer is not None:
        tracer.enabled = False
    timing = (t0, t1, ns)
    if error is not None:
        return timing, None, [f"raised {type(error).__name__}: {error}"]
    try:
        canonical, problems = job.check(result)
    except Exception as exc:
        return timing, None, [f"check raised {type(exc).__name__}: {exc}"]
    if job.known_defect is None and canonical is not None:
        got = digest(canonical)
        if got != golden:
            problems.append(f"result digest {got[:16]} differs from the "
                            f"golden {str(golden)[:16]}")
    return timing, canonical, problems


# -------------------------------------------------------------- rounds

def run_rounds(jobs, goldens, seed, seconds, tracer, sampler):
    """Run the job list in rounds until --seconds is used up.

    A round starts only if it is expected to end within half a round of
    the deadline; at least MIN_ROUNDS run.  When tracing, every second
    round is traced, and psbe is wrapped only during traced rounds."""
    rng = random.Random(seed)
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        order = list(jobs)
        rng.shuffle(order)
        rec = {"traced": traced, "calls": {}, "problems": {}}
        if traced:
            tracer.counts = Counter()
            rec["spans"] = len(tracer.spans)
            install_psbe(tracer)
        t0 = time.perf_counter()
        try:
            for job in order:
                rec["calls"][job.name], _, rec["problems"][job.name] = \
                    execute(job, tracer if traced else None,
                            goldens.get(job.name), sampler)
        finally:
            if traced:
                tracer.uninstall()
        rec["elapsed"] = time.perf_counter() - t0
        if traced:
            rec["counts"] = tracer.counts
            rec["spans"] = (rec["spans"], len(tracer.spans))
        rounds.append(rec)
        typical = statistics.median(r["elapsed"] for r in rounds)
        if (len(rounds) >= MIN_ROUNDS
                and time.perf_counter() - start + typical / 2 > seconds):
            return rounds


def tally(jobs, rounds):
    """(attempted, failed, known-defect failures); reports each failing
    job once on stderr."""
    defects = {j.name: j.known_defect for j in jobs}
    attempted = failed = known = 0
    seen = set()
    for r in rounds:
        for name, problems in r["problems"].items():
            attempted += 1
            if not problems:
                continue
            if defects[name]:
                known += 1
            else:
                failed += 1
            if name not in seen:
                seen.add(name)
                label = "known defect" if defects[name] else "FAILED"
                print(f"{label}: {name}: {'; '.join(problems)}"
                      + (f" [{defects[name]}]" if defects[name] else ""),
                      file=sys.stderr)
    return attempted, failed, known


# ------------------------------------------------------------- metrics

def scale_rounds(rounds, sampler):
    """Put each job's time in reference time (rec["times"], ns) and the
    factor for the round's span times (rec["scale"])."""
    for rec in rounds:
        calls = list(rec["calls"].values())
        rec["times"] = {name: sampler.scaled(*call)
                        for name, call in rec["calls"].items()}
        rec["scale"] = 1 / sampler.slowdown(calls[0][0], calls[-1][1])


def quantile(values, q):
    """q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def job_medians(rounds):
    """Each job's median time (ms) over the given rounds."""
    return [statistics.median(r["times"][name] for r in rounds) / 1e6
            for name in rounds[0]["times"]]


def peak_rss_mb(workload):
    """Peak RSS of this process, or of the largest child for cli (read
    before any probe child has run)."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(rounds, setup_s, rss_mb, attempted, failed, known):
    """job_p50_ms / job_p90_ms are percentiles over the job list of each
    job's median time: the job list mixes sizes (inv6 takes 20x psbe4),
    so a percentile of the pooled samples would fall on the edge between
    two jobs and swing with their extremes."""
    plain = [r for r in rounds if not r["traced"]]
    job_ms = job_medians(plain)
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(sum(r["times"].values()) / 1e9
                                    for r in plain),
        "job_p50_ms": quantile(job_ms, 50),
        "job_p90_ms": quantile(job_ms, 90),
        "peak_rss_mb": rss_mb,
        "pass_ratio": (attempted - failed - known) / attempted,
    }
    jobs = f"{len(job_ms)} jobs x {len(plain)}"
    samples = {"setup_s": len(setup_s), "wall_s": len(plain),
               "job_p50_ms": jobs, "job_p90_ms": jobs,
               "peak_rss_mb": 1, "pass_ratio": attempted}
    return values, samples


def _ratio(a, b):
    return a / b if b else 0.0


def round_layers(spans, selfs, rec):
    """Per-layer metrics of one traced round."""
    lo, hi = rec["spans"]
    total, own, family = Counter(), Counter(), Counter()
    models = 0
    for i in range(lo, hi):
        s = spans[i]
        total[s[NAME]] += s[END] - s[START]
        own[s[NAME]] += selfs[i]
        if s[NAME] == "laws.evaluate_law":
            family[s[TAG]] += s[END] - s[START]
        elif s[NAME] == "classify" and has_ancestor(spans, i, "laws.search"):
            models += 1
    k = rec["scale"] / 1e6

    def ms(ns):
        return ns * k

    c = rec["counts"]
    checks = c["quantifiers.check_monadic.calls"]
    parts = c["deduction.partitions_scanned"]
    cands = c["laws.search.candidates"]
    m = {
        "quantifiers.enumerate_mop.calls": c["quantifiers.enumerate_mop.calls"],
        "quantifiers.enumerate_mop.self_ms":
            ms(own["quantifiers.enumerate_mop"]),
        "quantifiers.check_monadic.calls": checks,
        "quantifiers.mop.yield": _ratio(c["quantifiers.mop.pairs"], checks),
        "deduction.enumerate_congruences.calls":
            c["deduction.enumerate_congruences.calls"],
        "deduction.enumerate_congruences.self_ms":
            ms(own["deduction.enumerate_congruences"]),
        "deduction.partitions_scanned": parts,
        "deduction.congruence.yield": _ratio(c["deduction.congruences"], parts),
        "deduction.enumerate_ds.calls": c["deduction.enumerate_ds.calls"],
        "deduction.enumerate_ds.self_ms": ms(own["deduction.enumerate_ds"]),
        "deduction.generated_ds.self_ms": ms(own["deduction.generated_ds"]),
        "deduction.quotient.self_ms": ms(own["deduction.quotient"]
                                         + own["deduction.theta_from_ds"]),
        "laws.verify_suite.self_ms": ms(own["laws.verify_suite"]),
        "laws.evaluate_law.calls": c["laws.evaluate_law.calls"],
        "laws.instances": c["laws.instances"],
        "laws.search.self_ms": ms(own["laws.search"]),
        "laws.search.candidates": cands,
        "laws.search.candidates_per_s": _ratio(
            cands, ms(total["laws.search"]) / 1e3),
        "laws.search.models": models,
        "laws.search.yield": _ratio(models, cands),
        "classify.calls": c["classify.calls"],
        "classify.self_ms": ms(own["classify"]),
        "algebra.parse.calls": c["algebra.parse.calls"],
        "algebra.parse.ms": ms(total["algebra.parse"]),
    }
    for f in LAW_FAMILIES:
        m[f"laws.family.{f}.ms"] = ms(family[f])
    return m


def timed_children(sampler, argv, n):
    """n timed runs of a child interpreter: [((start, end, own ns), stdout)]."""
    out = []
    for _ in range(n):
        t0, t1, ns, (status, stdout, stderr) = sampler.time(
            lambda: wl.run_child(argv), in_child=True)
        if status != 0:
            raise RuntimeError(stderr.decode(errors="replace"))
        out.append(((t0, t1, ns), stdout))
    return out


def interpreter_probes(sampler):
    """Timed runs of a bare interpreter and of `import psbe.cli`."""
    return {code: [t for t, _ in timed_children(sampler, ["-c", code],
                                                STARTUP_PROBES)]
            for code in ("pass", "import psbe.cli")}


def cli_layers(rounds, probes, sampler):
    """cli.* metrics: interpreter start-up, psbe.cli import and the median
    process time of each subcommand in untraced rounds."""
    def median_ms(calls):
        return statistics.median(sampler.scaled(*c) for c in calls) / 1e6
    startup = median_ms(probes["pass"])
    m = {"cli.startup_ms": startup,
         "cli.import_ms": median_ms(probes["import psbe.cli"]) - startup}
    by_cmd = defaultdict(list)
    for r in rounds:
        if not r["traced"]:
            for name, ns in r["times"].items():
                by_cmd[name.split("/")[1].split()[0]].append(ns / 1e6)
    for c in CLI_SUBCOMMANDS:
        m[f"cli.cmd.{c}.ms"] = statistics.median(by_cmd[c])
    return m


def per_layer(rounds, tracer, known, cli):
    """Per-layer metrics; cli is (probes, sampler) on the cli workload."""
    traced = [r for r in rounds if r["traced"]]
    selfs = self_times(tracer.spans)
    per_round = [round_layers(tracer.spans, selfs, r) for r in traced]
    values = {n: per_round[0][n] if n in EXACT else
              statistics.median(m[n] for m in per_round) for n in per_round[0]}
    for n in sorted(EXACT & set(values)):
        if len({m[n] for m in per_round}) > 1:
            print(f"warning: {n} differs between traced rounds: "
                  f"{[m[n] for m in per_round]}", file=sys.stderr)
    values.update(cli_layers(rounds, *cli) if cli else
                  {n: 0.0 for n, _ in PER_LAYER if n.startswith("cli.")})
    values["known_defects"] = known // len(rounds)
    wall = {t: statistics.median(sum(r["times"].values()) for r in rounds
                                 if r["traced"] == t) for t in (False, True)}
    values["trace.overhead"] = wall[True] / wall[False]
    return values


# -------------------------------------------------------------- output

def print_table(title, units, values, samples=None):
    print(title)
    for name, unit in units:
        n = f"  n={samples[name]}" if samples else ""
        print(f"  {name:42s} {values[name]:14.6g} {unit:6s}{n}")


def write_trace(workload, seed, tracer, rounds):
    wl.OUT_DIR.mkdir(exist_ok=True)
    path = wl.OUT_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "spans": tracer.spans,
        "rounds": [{"spans": r["spans"], "counts": r["counts"]}
                   for r in rounds if r["traced"]]}))
    return path


def setup_probe(workload):
    """Set-up as timed in a fresh interpreter (the --setup-probe mode)."""
    t0 = time.perf_counter()
    wl.setup(workload)
    return time.perf_counter() - t0


def record_goldens():
    """Write goldens.json: the digest of every job's canonical answer."""
    out = {}
    for workload in wl.SETUPS:
        for job in wl.setup(workload):
            if job.known_defect:
                continue
            canonical, problems = job.check(job.run(None))
            if problems:
                raise SystemExit(f"{job.name}: {problems}")
            out[job.name] = digest(canonical)
    GOLDENS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(wl.SETUPS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up of --workload and print it (internal)")
    p.add_argument("--record-goldens", action="store_true",
                   help="rewrite goldens.json from this checkout's psbe")
    args = p.parse_args(argv)
    if args.workload is None and not args.record_goldens:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [wl.SRC / "psbe" / "__init__.py", wl.SCHEMA]
    missing = [p for p in needed if not p.is_file()]
    if not (args.record_goldens or GOLDENS.is_file()):
        missing.append(GOLDENS)
    if missing:
        print("perfbench: this checkout lacks " + ", ".join(map(str, missing)),
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload)}))
        return 0
    if args.record_goldens:
        record_goldens()
        return 0

    with SpeedSampler() as sampler:
        *own_setup, jobs = sampler.time(lambda: wl.setup(args.workload))
        goldens = json.loads(GOLDENS.read_text())
        tracer = Tracer() if args.trace else None
        rounds = run_rounds(jobs, goldens, args.seed, args.seconds, tracer,
                            sampler)
        rss_mb = peak_rss_mb(args.workload)
        fresh = [] if args.trace else timed_children(
            sampler, [str(HERE / "run.py"), "--workload", args.workload,
                      "--setup-probe"], SETUP_PROBES)
        interp = (interpreter_probes(sampler)
                  if args.trace and args.workload == "cli" else None)
        time.sleep(SLACK_S)       # speed samples after the last timed call
    scale_rounds(rounds, sampler)
    attempted, failed, known = tally(jobs, rounds)
    setup_s = [sampler.scaled(*own_setup) / 1e9]
    setup_s += [sampler.scaled(t0, t1, json.loads(out.splitlines()[-1])[
        "setup_s"]) for (t0, t1, _), out in fresh]
    e2e, samples = end_to_end(rounds, setup_s, rss_mb, attempted, failed,
                              known)

    plain = [r for r in rounds if not r["traced"]]
    raw_wall = statistics.median(sum(c[2] for c in r["calls"].values())
                                 for r in plain) / 1e9
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"  jobs/round {len(jobs)}  attempted {attempted}  failed {failed}"
          f"  known-defect failures {known}")
    print_table("end-to-end" + (" (untraced rounds)" if args.trace else ""),
                END_TO_END, e2e, samples)
    slow = [x for k in sampler.slow for x in k]
    print(f"  (unscaled wall_s {raw_wall:.6g} s; host slow-down median "
          f"{statistics.median(slow):.3g} over {len(slow)} samples)")
    if args.trace:
        layers = per_layer(rounds, tracer, known,
                           interp and (interp, sampler))
        path = write_trace(args.workload, args.seed, tracer, rounds)
        print_table(f"per-layer (median of "
                    f"{sum(r['traced'] for r in rounds)} traced rounds; "
                    f"spans in {path.relative_to(wl.ROOT)})", PER_LAYER, layers)
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
