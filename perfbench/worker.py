"""One fresh benchmark worker interpreter.

It imports the program, prints ``ready`` (the client times start-up to this
line), then reads one JSON job from stdin, runs it and prints one JSON
result.  Jobs: ``probe`` (report versions and stop), or a workload run: a
cold warm-up unit, one unit per input, warm reruns of the warm-up input,
then the correctness gates.  Only the
units are timed or traced; the gates run after them in this same process,
which is then discarded, so nothing they cache reaches a later timed run.

Run by perfbench/run.py with PYTHONPATH pointing at the checkout's src/.
"""

import sys
import time

from diracshoot import cli

print("ready", flush=True)

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from diracshoot import shooting, verify  # noqa: E402
from diracshoot.params import Params, Tolerances  # noqa: E402

import calib  # noqa: E402
import tracing  # noqa: E402

STRADDLE = 1e-7  # relative offset of the classify gate around lambda*
SCALING_REL = 1e-8  # lambda*(m, w) vs sqrt(m) lambda*(1, w/m)
SCALING_UNITS = 4  # units per run that get the untimed scaling solve
RATIO_SPREAD = 1.5  # allowed max/min of sup_error/eps^2 within a unit


def versions():
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def check_names():
    return [c.__name__.removeprefix("check_") for c in verify.ALL_CHECKS]


def gs_unit(x):
    m, omega = x
    env = cli.run_ground_state(cli.RunConfig(m=m, omega=omega))
    return env, cli.render_json(env)


def asym_unit(x):
    env = cli.run_asymptotics(cli.RunConfig(epsilons=tuple(x)))
    return env, cli.render_json(env)


def gs_summary(env):
    p = env["payload"]
    return {k: p[k] for k in ("lambda_star", "converged", "node_count")}


def asym_summary(env):
    study = env["payload"]["study"]
    return {
        "epsilons": study["epsilons"],
        "sup_errors": study["sup_errors"],
        "threshold_ok": [r["threshold_ok"] for r in env["payload"]["remainders"]],
        "bound_exceeded": sum(
            1 for d in env["diagnostics"] if d.startswith(tracing.BOUND_DIAGNOSTIC)
        ),
    }


def gs_gates(x, s, scaled):
    """Failed gate names for one ground-state unit."""
    m, omega = x
    failed = []
    if not (s["converged"] and s["node_count"] == 0):
        failed.append("converged_node_free")
    lam = s["lambda_star"]
    cfg = cli.RunConfig(m=m, omega=omega)
    p, tol = cfg.params(), cfg.tolerances()
    below = shooting.classify(lam * (1.0 - STRADDLE), p, tol, keep_trajectory=False)
    above = shooting.classify(lam * (1.0 + STRADDLE), p, tol, keep_trajectory=False)
    if not (below.node_count == 0 and above.node_count >= 1):
        failed.append("classify_straddles")
    if scaled:
        ref = shooting.ground_state(Params(1.0, omega / m), Tolerances()).lambda_star
        if abs(lam - math.sqrt(m) * ref) > SCALING_REL * lam:
            failed.append("scaling_covariance")
    return failed


def asym_gates(x, s, scaled):
    failed = []
    if not all(s["threshold_ok"]):
        failed.append("threshold_ok")
    ratios = [e / (eps * eps) for e, eps in zip(s["sup_errors"], s["epsilons"])]
    if max(ratios) > RATIO_SPREAD * min(ratios):
        failed.append("ratio_within_1.5")
    return failed


WORKLOADS = {
    "gs_sweep": (gs_unit, gs_summary, gs_gates, ("converged_node_free", "classify_straddles", "scaling_covariance")),
    "asym_sweep": (asym_unit, asym_summary, asym_gates, ("threshold_ok", "ratio_within_1.5")),
}


def attempt(unit, x):
    """Run one unit; returns (seconds, envelope or None, text, error or None)."""
    t = time.perf_counter()
    try:
        env, text = unit(x)
    except Exception as err:  # a raising unit is a failed unit, not a crash
        return time.perf_counter() - t, None, "", f"raised {err!r}"
    return time.perf_counter() - t, env, text, None


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run(job):
    """Warm-up, units, warm reruns, gates.

    With ``trace`` every unit runs twice, back to back: untraced, then
    traced.  Pairing the two on the same input, moments apart, keeps the
    tracing overhead measurable on a machine whose speed drifts.
    """
    unit, summarize, gates, gate_names = WORKLOADS[job["workload"]]
    tracer = switch = None
    if job["trace"]:
        tracer = tracing.Tracer()
        switch = tracing.install(tracer)

    ref_start = calib.ref_time()
    cold = attempt(unit, job["warm"])[0]

    inputs = job["inputs"]
    latencies, summaries, digests, sizes, failures = [], [], [], [], {}
    plain, plain_digests = [], []
    refs = [calib.ref_time()]  # refs[i] and refs[i + 1] bracket unit i
    for i, x in enumerate(inputs):
        errors = []
        if tracer:
            switch(False)
            dt, _env, text, err = attempt(unit, x)
            switch(True)
            plain.append(dt)
            plain_digests.append(sha(text))
            errors += [err] if err else []
            tracer.begin_unit(i)
        dt, env, text, err = attempt(unit, x)
        if tracer:
            tracer.end_unit()
        errors += [err] if err else []
        if errors:
            failures[i] = errors
        latencies.append(dt)
        summaries.append(None if env is None else summarize(env))
        digests.append(sha(text))
        sizes.append(len(text.encode()))
        refs.append(calib.ref_time())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    warm = [attempt(unit, job["warm"])[0] for _ in range(job["warm_repeats"])]

    n = len(latencies)
    scaled = set(random.Random(job["gate_seed"]).sample(range(n), min(SCALING_UNITS, n)))
    gate_passed = {g: 0 for g in gate_names}
    gate_total = {g: 0 for g in gate_names}
    for i, s in enumerate(summaries):
        if s is None:
            continue
        failed = gates(inputs[i], s, i in scaled)
        for g in gate_names:
            if g == "scaling_covariance" and i not in scaled:
                continue
            gate_total[g] += 1
            gate_passed[g] += g not in failed
        if failed:
            failures.setdefault(i, []).extend(failed)
    if tracer:
        same = sum(a == b for a, b in zip(plain_digests, digests))
        gate_passed["trace_preserves_output"], gate_total["trace_preserves_output"] = same, n
        for i, (a, b) in enumerate(zip(plain_digests, digests)):
            if a != b:
                failures.setdefault(i, []).append("trace_preserves_output")

    result = {
        "versions": versions(),
        "ref_start": ref_start,
        "refs": refs,
        "cold_s": cold,
        "warm_s": warm,
        "latencies": latencies,
        "plain_latencies": plain,
        "peak_rss_mb": peak_rss_mb,
        "bytes": sizes,
        "failures": failures,
        "gates": {g: [gate_passed[g], gate_total[g]] for g in gate_passed},
        "bound_exceeded": sum(s["bound_exceeded"] for s in summaries if s and "bound_exceeded" in s),
        "check_names": check_names(),
    }
    if tracer:
        with open(job["spans_path"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return result


def main():
    job = json.load(sys.stdin)
    if job.get("probe"):
        result = {"versions": versions(), "check_names": check_names()}
    else:
        result = run(job)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
