"""diracshoot benchmark: one command, one report.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the root of a checkout (the directory holding BENCHMARK.json and
src/diracshoot).  It builds nothing but byte code, makes the workload's
inputs from the seed, measures S seconds of work from outside the program and
prints every metric by name with its unit, the correctness gates and the
environment; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  Spans and a full report go to .perfbench_out/.

Times are calibrated seconds (see calib.py): each raw time is scaled by a
reference kernel timed next to it on the same pinned core, so the host's
speed drift does not read as a change of the program.  The report also
prints the raw end-to-end times.  Not calibrated: import.* (from -X
importtime), trace.overhead_frac (raw pairs run moments apart) and
host.ref_ms, the raw reference time itself.

Load: one closed-loop client (this process) and at most one worker or CLI
subprocess alive at a time.  Workloads:

* gs_sweep   -- in-process ground states, one fresh worker per timed run;
* asym_sweep -- in-process blow-up asymptotics, same shape;
* cli_cold   -- sequential fresh ``python -m diracshoot`` invocations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calib
import tracing

SETUP_WORKERS = 3  # fresh interpreters whose start-up gives setup_s (in-process)
SETUP_PROBES = 9  # fresh import probes for cli_cold's setup_s
WARM_REPEATS = 2  # warm reruns of the warm-up input that give its steady time
IMPORT_PROBES = 3  # -X importtime runs in a traced run
CHILD_TIMEOUT = 170.0
CLI_ROTATION = ("classify", "ground-state", "asymptotics", "portrait", "verify")
# Calibrated seconds per unit at the commit that defined the benchmark.  A run
# measures round(S / NOMINAL_UNIT_S) units, so it takes about S seconds there
# and every run of a workload, before and after a change, measures the same
# work: the sample size, and with it the tail percentile, do not move with
# the program's speed.
NOMINAL_UNIT_S = {"gs_sweep": 0.165, "asym_sweep": 0.077, "cli_cold": 0.78}


class BenchError(RuntimeError):
    pass


# --- inputs -------------------------------------------------------------------


def r_sequence(dim: int, seed: int, n: int) -> list[list[float]]:
    """n points of the additive R_d sequence in [0, 1)^dim, shifted by the seed.

    Every prefix is evenly spread over the cube (low discrepancy), so runs
    of different lengths and seeds cover the parameter range alike.
    """
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dim + 1))
    alpha = [g ** -(k + 1) for k in range(dim)]
    rng = random.Random(seed)
    shift = [rng.random() for _ in range(dim)]
    return [[(s + (i + 1) * a) % 1.0 for s, a in zip(shift, alpha)] for i in range(n)]


def gs_inputs(seed: int, n: int) -> list[list[float]]:
    # m log-uniform in [0.5, 4], omega/m uniform in [0.05, 0.95]
    out = []
    for u1, u2 in r_sequence(2, seed, n):
        m = 0.5 * 8.0 ** u1
        out.append([m, m * (0.05 + 0.9 * u2)])
    return out


def asym_inputs(seed: int, n: int) -> list[list[float]]:
    # three distinct eps, log-uniform in [0.01, 0.3], in decreasing order
    out = [sorted((0.01 * 30.0 ** u for u in pt), reverse=True) for pt in r_sequence(3, seed, n)]
    if any(len(set(t)) != 3 for t in out):
        raise BenchError("epsilon triple with repeated values")
    return out


def cli_inputs(seed: int, n: int) -> list[list[str]]:
    """n argument lists from a fixed rotation of the five README commands.

    Each rotation takes one point of an 8-dimensional R sequence: lambda in
    [0.3, 3] (two for classify, two for portrait), omega/m in [0.05, 0.95]
    for ground-state and three eps log-uniform in [0.02, 0.3].
    """
    out = []
    for pt in r_sequence(8, seed, -(-n // len(CLI_ROTATION))):
        lam = [repr(0.3 + 2.7 * u) for u in sorted(pt[0:2])]
        omega = 0.05 + 0.9 * pt[2]
        eps = sorted((0.02 * 15.0 ** u for u in pt[3:6]), reverse=True)
        lam_p = [repr(0.3 + 2.7 * u) for u in sorted(pt[6:8])]
        out += [
            ["classify", "--lambda", lam[0], "--lambda", lam[1], "--format", "csv"],
            ["ground-state", "--omega", repr(omega), "--out", "gs.json"],
            ["asymptotics"] + [tok for e in eps for tok in ("--epsilon", repr(e))],
            ["portrait", "--lambda", lam_p[0], "--lambda", lam_p[1], "--out", "portrait.csv", "--format", "csv"],
            ["verify"],
        ]
    return out[:n]


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# --- processes ----------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_worker(root: Path, job: dict) -> tuple[float, dict]:
    """Start a fresh worker; return (start-up-to-ready seconds, its result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(root / "perfbench" / "worker.py")],
        cwd=root,
        env=child_env(root),
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() == "ready":
            proc.stdin.write(json.dumps(job))
            proc.stdin.close()
            out = proc.stdout.read()
        else:
            out = ""
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not out.strip():
        raise BenchError(f"worker failed with exit code {code}")
    return ready, json.loads(out.strip().splitlines()[-1])


def import_profile(root: Path) -> dict:
    """One fresh interpreter under -X importtime importing the program."""
    code = (
        "import sys; before = set(sys.modules); import diracshoot.cli; "
        "print(len(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        cwd=root,
        env=child_env(root),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr[-500:]}")
    entries = []  # (indent, name, cumulative us), in the post-order -X importtime prints
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self_us, cum_us, raw = line[len("import time:"):].split("|")
        entries.append((len(raw) - len(raw.lstrip()), raw.strip(), int(cum_us)))
    base = min(e[0] for e in entries)
    total = scipy_us = 0
    stack: list[str] = []  # names of the open ancestors, outermost first
    for indent, name, cum in reversed(entries):  # parents now come before children
        level = (indent - base) // 2
        del stack[level:]
        if level == 0 and name.partition(".")[0] == "diracshoot":
            total += cum
        if name.partition(".")[0] == "scipy" and not any(a.partition(".")[0] == "scipy" for a in stack):
            scipy_us += cum
        stack.append(name)
    return {
        "import.total_s": total * 1e-6,
        "import.scipy_s": scipy_us * 1e-6,
        "import.modules": int(proc.stdout.strip()),
    }


def import_metrics(root: Path) -> dict:
    probes = [import_profile(root) for _ in range(IMPORT_PROBES)]
    return {k: statistics.median(p[k] for p in probes) for k in probes[0]}


# --- in-process workloads -------------------------------------------------------


def inprocess_job(workload, inputs, warm, seed, **extra) -> dict:
    job = {
        "workload": workload,
        "inputs": inputs,
        "warm": warm,
        "warm_repeats": WARM_REPEATS,
        "trace": False,
        "gate_seed": seed,
    }
    job.update(extra)
    return job


def setup_sample(ref_before: float, ready: float, result: dict) -> tuple[float, float]:
    """(raw seconds, calibration factor) of one fresh worker's set-up.

    Set-up is start-up to ready plus the warm-up unit's excess over its warm
    reruns, so work moved from import into first use still counts.
    """
    raw = ready + result["cold_s"] - statistics.median(result["warm_s"])
    return raw, calib.factor(ref_before, result["ref_start"])


def unit_samples(latencies: list[float], refs: list) -> list[tuple[float, float]]:
    """(raw seconds, calibration factor) per unit; refs[i], refs[i + 1] bracket unit i."""
    return list(zip(latencies, calib.unit_factors(refs)))


def unit_count(workload: str, seconds: float, trace: bool) -> int:
    """Units in one run; a traced run runs each unit twice, so it has half."""
    n = seconds / NOMINAL_UNIT_S[workload] / (2.0 if trace else 1.0)
    if workload == "cli_cold":  # whole rotations of twin pairs
        rotation = 2 * len(CLI_ROTATION)
        return rotation * max(1, round(n / rotation))
    return max(1, round(n))


def run_inprocess(root, workload, seed, seconds, trace, out_dir) -> dict:
    make = gs_inputs if workload == "gs_sweep" else asym_inputs
    points = make(seed, 1 + unit_count(workload, seconds, trace))
    warm, inputs = points[0], points[1:]
    rec = {"inputs_digest": digest(points)}
    if not trace:
        setups = []
        for k in range(SETUP_WORKERS):
            # the last worker also runs the timed units
            last = k == SETUP_WORKERS - 1
            job = inprocess_job(workload, inputs if last else [], warm, seed)
            ref = calib.ref_time()
            ready, res = run_worker(root, job)
            setups.append(setup_sample(ref, ready, res))
        samples = unit_samples(res["latencies"], res["refs"])
        rec.update(result=res, samples=samples, refs=res["refs"], setups=setups, versions=res["versions"])
        return rec

    rec["imports"] = import_metrics(root)
    spans_path = out_dir / f"{workload}-seed{seed}-worker-spans.json"
    job = inprocess_job(
        workload, inputs, warm, seed, trace=True, warm_repeats=0, spans_path=str(spans_path)
    )
    _, res = run_worker(root, job)
    data = json.loads(spans_path.read_text(encoding="utf-8"))
    spans_path.unlink()
    rec.update(
        result=res,
        samples=unit_samples(res["latencies"], res["refs"]),
        refs=res["refs"],
        versions=res["versions"],
        spans=data["spans"],
        counts=data["counts"],
        unit_walls=None,
        check_names=res["check_names"],
    )
    return rec


# --- cli_cold ---------------------------------------------------------------------


def dir_digest(d: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for f in sorted(d.iterdir()):
        data = f.read_bytes()
        size += len(data)
        h.update(f.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), size


def cli_unit(root: Path, work: Path, i: int, argv: list[str], spans_dir: Path | None) -> dict:
    """One fresh CLI process in its own directory; returns wall, exit code, output digest."""
    d = work / f"u{i}"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    if spans_dir is None:
        cmd = [sys.executable, "-m", "diracshoot", *argv]
    else:
        shim = root / "perfbench" / "clishim.py"
        cmd = [sys.executable, str(shim), str(spans_dir / f"{i}.json"), str(i), *argv]
    err_path = work / f"stderr{i}"
    with open(d / "stdout", "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=d, env=child_env(root), stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"CLI unit {i} timed out: {argv}") from None
        wall = time.perf_counter() - t0
    h, size = dir_digest(d)
    shutil.rmtree(d)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    err_path.unlink()
    return {"argv": argv, "wall": wall, "code": code, "digest": h, "bytes": size, "stderr": stderr[-300:]}


def cli_phase(root, work, invocations, spans_dir=None):
    """Fresh CLI units; units 2k and 2k+1 run invocation k (the determinism gate).

    With ``spans_dir`` every unit is followed by a traced run of the same
    invocation through the shim.  Returns (untraced units, traced units,
    references around the untraced units).
    """
    units, traced, refs = [], [], [calib.ref_time()]
    for i in range(2 * len(invocations)):
        units.append(cli_unit(root, work, i, invocations[i // 2], None))
        if spans_dir is not None:
            traced.append(cli_unit(root, work, i, invocations[i // 2], spans_dir))
        refs.append(calib.ref_time())
    return units, traced, refs


def cli_failures(units, traced) -> dict:
    failures = {}
    for i, u in enumerate(units):
        reasons = []
        for run in [u] + traced[i : i + 1]:
            if run["code"] != 0:
                reasons.append(f"exit code {run['code']}: {run['stderr']}")
        if units[i ^ 1]["digest"] != u["digest"]:
            reasons.append("byte_identical")
        if traced and traced[i]["digest"] != u["digest"]:
            reasons.append("trace_preserves_output")
        if reasons:
            failures[i] = reasons
    return failures


def cli_gates(units, traced, failures) -> dict:
    n = len(units)
    gates = {
        "exit_0": [sum(u["code"] == 0 for u in units + traced), n + len(traced)],
        "byte_identical": [sum("byte_identical" not in failures.get(i, []) for i in range(n)), n],
    }
    if traced:
        same = sum("trace_preserves_output" not in failures.get(i, []) for i in range(n))
        gates["trace_preserves_output"] = [same, n]
    return gates


def run_cli(root, seed, seconds, trace, out_dir) -> dict:
    invocations = cli_inputs(seed, unit_count("cli_cold", seconds, trace) // 2)
    rec = {"inputs_digest": digest(invocations)}
    work = root / ".perfbench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if not trace:
            readies, refs = [], [calib.ref_time()]
            for _ in range(SETUP_PROBES):
                ready, probe = run_worker(root, {"probe": True})
                readies.append(ready)
                refs.append(calib.ref_time())
            setups, versions = unit_samples(readies, refs), probe["versions"]
            units, traced, refs = cli_phase(root, work, invocations)
            rss = children_peak_rss_mb()
            samples = unit_samples([u["wall"] for u in units], refs)
            rec.update(
                units=units, traced=traced, samples=samples, refs=refs, setups=setups, versions=versions, peak_rss_mb=rss
            )
            return rec

        _, probe = run_worker(root, {"probe": True})
        rec["imports"] = import_metrics(root)
        spans_dir = work / "spans"
        spans_dir.mkdir()
        units, traced, refs = cli_phase(root, work, invocations, spans_dir=spans_dir)
        spans, counts = [], {}
        for i in range(len(traced)):
            path = spans_dir / f"{i}.json"
            if not path.exists():
                continue  # a failed unit; counted by its gates
            data = json.loads(path.read_text(encoding="utf-8"))
            offset = len(spans)
            spans.extend(
                [s[0], s[1], s[2], None if s[3] is None else s[3] + offset, s[4]] for s in data["spans"]
            )
            counts.update(data["counts"])
        rec.update(
            units=units,
            traced=traced,
            samples=unit_samples([u["wall"] for u in units], refs),
            refs=refs,
            versions=probe["versions"],
            spans=spans,
            counts=counts,
            unit_walls={i: u["wall"] for i, u in enumerate(traced)},
            check_names=probe["check_names"],
        )
        return rec
    finally:
        shutil.rmtree(work, ignore_errors=True)


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest child waited for so far (the largest CLI process)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# --- metrics ------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n <= 10:  # no sample has ten beyond it: report the maximum
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(samples, setups, peak_rss_mb, attempted, failed) -> tuple[dict, dict]:
    """End-to-end metrics in calibrated seconds, and their raw values for the report."""

    def timings(scale):
        lat = [t * scale(f) for t, f in samples]
        value, pct = tail(lat)
        return {
            "setup_s": statistics.median(t * scale(f) for t, f in setups),
            "throughput_per_s": len(lat) / sum(lat),
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": value,
        }, pct

    metrics, pct = timings(lambda f: f)
    raw, _ = timings(lambda f: 1.0)
    metrics["peak_rss_mb"] = peak_rss_mb
    metrics["ok_frac"] = (attempted - failed) / attempted
    facts = {
        "latency_tail_s is": f"p{pct:.1f} over n={len(samples)} units",
        "failed_frac": failed / attempted,
        "raw (uncalibrated) timings": {k: round(v, 6) for k, v in raw.items()},
        "host speed vs nominal (median factor)": round(statistics.median(f for _, f in samples), 4),
    }
    return metrics, facts


def per_layer(workload, rec) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and the extra facts the report prints."""
    spans, counts = rec["spans"], rec["counts"]
    silent = tracing.silent(spans, counts, tracing.required(workload, rec["check_names"]))
    if silent:
        raise BenchError(f"tracing recorded nothing where the layer must run: {silent}")
    metrics = dict(rec["imports"])
    scale = {i: f for i, (_t, f) in enumerate(rec["samples"])}
    if workload == "cli_cold":
        traced_wall = sum(u["wall"] for u in rec["traced"])
        plain_wall = sum(u["wall"] for u in rec["units"])
        sizes = [u["bytes"] for u in rec["units"]]
        for command in tracing.CLI_RUNNERS:
            walls = [u["wall"] * scale[i] for i, u in enumerate(rec["units"]) if u["argv"][0] == command]
            metrics[f"cli.cold_s.{command}"] = statistics.median(walls)
    else:
        traced_wall = sum(rec["result"]["latencies"])
        plain_wall = sum(rec["result"]["plain_latencies"])
        sizes = rec["result"]["bytes"]
        for command in tracing.CLI_RUNNERS:
            metrics[f"cli.cold_s.{command}"] = 0.0
    metrics.update(tracing.layer_metrics(spans, counts, scale, rec["check_names"]))
    metrics["cli.output_bytes"] = sum(sizes) / len(sizes)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    metrics["trace.span_coverage"] = tracing.coverage(spans, rec["unit_walls"])
    metrics["host.ref_ms"] = 1e3 * calib.REF_NOMINAL_S / statistics.median(f for _, f in rec["samples"])
    self_time = tracing.summarize(spans, counts, scale)[2]
    top = sorted(self_time.items(), key=lambda kv: -kv[1])[:15]
    facts = {
        "units_traced": len(scale),
        "self_s_per_unit": {k: round(v / len(scale), 6) for k, v in top},
        "zero on this workload": sorted(k for k, v in metrics.items() if v == 0),
    }
    return metrics, facts


# --- main ---------------------------------------------------------------------------


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_at_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("gs_sweep", "asym_sweep", "cli_cold"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    bench_file = root / "BENCHMARK.json"
    if not (root / "src" / "diracshoot" / "__init__.py").is_file() or not bench_file.is_file():
        print("perfbench: run from the root of a diracshoot checkout (src/diracshoot and BENCHMARK.json)", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/diracshoot", "perfbench"],
        cwd=root, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT,
    )
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = environment()
    if args.workload == "cli_cold":
        # The client times the reference kernel between CLI children, so it
        # and the children (which inherit this) share one core.  In-process
        # workers time it themselves and stay free to move off a busy core.
        env["pinned_cpu"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {env["pinned_cpu"]})
    trace = bool(args.trace)

    if args.workload == "cli_cold":
        rec = run_cli(root, args.seed, args.seconds, trace, out_dir)
        units, traced = rec["units"], rec["traced"]
        failures = cli_failures(units, traced)
        gates = cli_gates(units, traced, failures)
        latencies = [u["wall"] for u in units]
    else:
        rec = run_inprocess(root, args.workload, args.seed, args.seconds, trace, out_dir)
        res = rec["result"]
        failures, gates = res["failures"], res["gates"]
        latencies = res["latencies"]
    # in a traced run a unit is one input run untraced and traced; it fails if either does
    attempted, failed = len(latencies), len(failures)
    if attempted < 1:
        raise BenchError("no unit completed")

    if trace:
        metrics, facts = per_layer(args.workload, rec)
        declared = bench["per_layer"]
    else:
        rss = rec["peak_rss_mb"] if args.workload == "cli_cold" else res["peak_rss_mb"]
        metrics, facts = end_to_end(rec["samples"], rec["setups"], rss, attempted, failed)
        declared = bench["end_to_end"]
    if args.workload != "cli_cold":
        facts["remainder_bound_exceeded (known red, recorded only)"] = res["bound_exceeded"]
    unit_of = {m["name"]: m["unit"] for m in declared}
    expected = list(unit_of)
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        raise BenchError(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": dict(env, **rec["versions"]),
        "inputs_digest": rec["inputs_digest"],
        "gates": gates,
        "failures": failures,
        "facts": facts,
        "metrics": metrics,
        "samples (raw s, calibration factor)": rec["samples"],
        "references (s)": rec["refs"],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}-report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    if trace:
        with open(out_dir / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, unit in rec["spans"]:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "unit": unit}) + "\n")

    print(f"diracshoot benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for k, v in report["environment"].items():
        print(f"  env {k}: {v}")
    print(f"  inputs sha256: {rec['inputs_digest']}")
    for g, (ok, total) in gates.items():
        print(f"  gate {g}: {ok}/{total} passed")
    for i, reasons in list(failures.items())[:10]:
        print(f"  FAILED unit {i}: {'; '.join(reasons)}")
    for k, v in facts.items():
        print(f"  {k}: {v}")
    for name in expected:
        print(f"  metric {name} = {metrics[name]:.6g} {unit_of[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of[name]} for name in expected},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(1)
