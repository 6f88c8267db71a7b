"""Tests of the benchmark itself.  Run with

    python3 -m pytest perfbench/tests
"""

import gc
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, install_psbe, self_times  # noqa: E402

psbe = wl.import_psbe()


def span(name, start, end, parent):
    return [name, start, end, parent, "job", None]


def test_self_time_subtracts_children_once():
    spans = [span("root", 0, 100, -1),
             span("a", 10, 40, 0),
             span("a.child", 15, 25, 1),
             span("b", 30, 50, 0),        # overlaps a by 10: counted once
             span("c", 90, 120, 0)]       # runs past its parent: clipped
    assert self_times(spans) == [100 - 40 - 10, 30 - 10, 10, 20, 30]


def test_traced_calls_inside_the_package_are_attributed():
    tracer = Tracer()
    install_psbe(tracer)
    try:
        assert hasattr(psbe.laws.classify, "__wrapped__")
        alg = psbe.load_algebra(wl.FIXTURE_DIR / "bc4.alg")
        tracer.enabled = True
        psbe.verify_suite(alg, psbe.enumerate_mop(alg))
        tracer.enabled = False
    finally:
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "quantifiers.enumerate_mop"
    suite = names.index("laws.verify_suite")
    parents = {tracer.spans[i][3] for i, n in enumerate(names)
               if n == "classify" and i > suite}
    assert parents == {suite}              # Ctx -> classify, by-name binding
    assert tracer.counts["deduction.partitions_scanned"] > 0   # via _ded.
    assert tracer.counts["laws.evaluate_law.calls"] == names.count(
        "laws.evaluate_law")
    assert not hasattr(psbe.laws.classify, "__wrapped__")


@pytest.mark.parametrize("factor", ["bc4", "psbe4", "psbe5"])
def test_product_is_psbe_with_monadic_pairs(factor):
    a = psbe.load_algebra(wl.FIXTURE_DIR / f"{factor}.alg")
    alg, pairs = wl.build_product(psbe, a)
    assert alg.size == 2 * a.size
    assert psbe.check_pseudo_be(alg)
    assert len(pairs) == len(wl.declared_pairs(psbe, a))
    assert all(psbe.quantifiers.is_monadic(alg, p) for p in pairs)
    # the first coordinate of the chain factor: (x, 1) -> (y, 1) = (x -> y, 1)
    for x in a.elements():
        for y in a.elements():
            assert alg.arrow[2 * x][2 * y] == 2 * a.arrow[x][y]


def test_slowdown_is_a_trimmed_mean_of_the_samples_around_a_call():
    sampler = speed.SpeedSampler()
    ms = 1_000_000
    # kernel 0 slowed 2x and kernel 1 8x at 400 ms: geometric mean 4
    sampler.at = ([0, 400 * ms, 2000 * ms], [100 * ms, 400 * ms])
    sampler.slow = ([1.0, 2.0, 9.0], [1.0, 8.0])
    # [500 ms, 600 ms] +- 250 ms holds the samples at 400 ms only
    assert sampler.slowdown(500 * ms, 600 * ms) == 4.0
    assert sampler.scaled(500 * ms, 600 * ms, 10 * ms) == 2.5 * ms
    # long and short calls alike: one stall in ten samples is cut
    at = [10 * ms * i for i in range(10)]
    sampler.at = (at, at)
    sampler.slow = ([1.0] * 9 + [50.0], [4.0] * 10)
    assert speed.TRIM == 0.1
    assert sampler.slowdown(0, 90 * ms) == 2.0
    assert sampler.slowdown(45 * ms, 46 * ms) == 2.0
    with pytest.raises(RuntimeError):
        sampler.slowdown(1000 * ms, 1100 * ms)


def test_sampler_samples_inside_a_call_and_excludes_itself():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    with speed.SpeedSampler() as sampler:
        t0, t1, own, _ = sampler.time(busy)
        spent, before = sampler.spent, sum(map(len, sampler.at))
        sampler.time(lambda: None, in_child=True)
    assert sum(t0 <= t <= t1 for at in sampler.at for t in at) >= 6
    assert 0 < t1 - t0 - own <= spent
    assert sum(map(len, sampler.at)) == before + 2 * speed.BURST
    assert gc.isenabled()                  # collection back on after samples


def _search_job(law_id):
    return next(j for j in wl.setup_search(psbe) if j.name.startswith(
        f"search/{law_id}<="))


def _execute(job, golden):
    with speed.SpeedSampler() as sampler:
        return run.execute(job, None, golden, sampler)


def test_checker_flags_the_false_neg_constants_counterexample():
    job = _search_job("BND.neg_constants")
    assert job.known_defect
    _, canonical, problems = _execute(job, None)
    assert canonical == {"exhausted": False, "counterexample_size": 2}
    assert any("false counterexample" in p for p in problems)


def test_checker_accepts_a_true_counterexample():
    job = _search_job("AX.psbck6_antisym")
    goldens = json.loads(run.GOLDENS.read_text())
    assert _execute(job, goldens[job.name])[2] == []


def test_checker_flags_a_doctored_golden():
    job = wl.setup_fixtures(psbe)[0]
    goldens = json.loads(run.GOLDENS.read_text())
    assert _execute(job, goldens[job.name])[2] == []
    doctored = "0" * 64
    problems = _execute(job, doctored)[2]
    assert len(problems) == 1 and "golden" in problems[0]


def _recording_jobs(log):
    def make(name):
        return wl.Job(name, lambda _t: log.append(name) or name,
                      lambda r: (r, []))
    return [make(f"j{i}") for i in range(6)]


def _order(seed):
    log = []
    jobs = _recording_jobs(log)
    goldens = {j.name: run.digest(j.name) for j in jobs}
    with speed.SpeedSampler() as sampler:
        rounds = run.run_rounds(jobs, goldens, seed, 0, None, sampler)
    assert len(rounds) == run.MIN_ROUNDS
    assert not any(p for r in rounds for p in r["problems"].values())
    return log


def test_seed_changes_only_the_job_order():
    a, b = _order(1), _order(2)
    for log in (a, b):
        for k in range(0, len(log), 6):
            assert sorted(log[k:k + 6]) == [f"j{i}" for i in range(6)]
    assert a != b
    assert _order(1) == a


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.SETUPS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)
