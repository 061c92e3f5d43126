import argparse
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracshoot import cli
from diracshoot.cli import ConfigError, RunConfig, parse_config_file


def test_runconfig_validation():
    with pytest.raises(ConfigError):
        RunConfig(m=1.0, omega=1.5)
    with pytest.raises(ConfigError):
        RunConfig(lambdas=(0.5, -1.0))
    with pytest.raises(ConfigError):
        RunConfig(epsilons=(0.5, 1.5))
    with pytest.raises(ConfigError):
        RunConfig(format="xml")
    with pytest.raises(ConfigError):
        RunConfig(tol_rel=0.0)  # Tolerances' own check, reported as a ConfigError
    with pytest.raises(ConfigError):
        RunConfig(T=0.0)
    with pytest.raises(ConfigError):
        RunConfig(resolution=1)


def test_config_file_parsing(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# sample configuration\n"
        "m = 1.0\n"
        "omega = 0.5   # frequency\n"
        "lambda = 0.5, 1.0\n"
        "tol_rel = 1e-9\n"
        "format = csv\n"
    )
    values = parse_config_file(str(cfgfile))
    assert values["m"] == 1.0
    assert values["lambdas"] == (0.5, 1.0)
    assert values["tol_rel"] == 1e-9
    assert values["format"] == "csv"


def test_config_file_rejects_unknown_key(tmp_path):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("masss = 1.0\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfgfile))


@pytest.mark.parametrize(
    "line, message",
    [("m 1.0", "expected 'key = value', got 'm 1.0'"), ("m = one", "bad value for m: could not convert")],
)
def test_config_file_rejects_malformed_lines(tmp_path, line, message):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(f"omega = 0.5\n{line}\n")
    with pytest.raises(ConfigError, match=f"bad.cfg:2: {message}"):
        parse_config_file(str(cfgfile))


def test_flag_overrides_config(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("omega = 0.25\nlambda = 0.5\n")
    parser = cli.build_parser()
    args = parser.parse_args(["classify", "--config", str(cfgfile), "--omega", "0.75"])
    cfg = cli.make_config(args)
    assert cfg.omega == 0.75  # flag wins
    assert cfg.lambdas == (0.5,)  # config survives


COMMON_FLAGS = ["--m", "--omega", "--tol-rel", "--tol-abs", "--rmax", "--format", "--out", "--config"]


@pytest.mark.parametrize(
    "command, own",
    [
        ("ground-state", []),
        ("classify", ["--lambda"]),
        ("asymptotics", ["--epsilon", "--T"]),
        ("portrait", ["--lambda", "--level", "--resolution"]),
        ("verify", []),
    ],
)
def test_each_command_takes_the_common_flags_and_those_of_its_table_row(command, own):
    # every flag is a RunConfig field's config-file key with dashes, and --config the only one without a field
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = [a for a in sub.choices[command]._actions if a.dest != "help"]
    assert [s for a in actions for s in a.option_strings] == COMMON_FLAGS + own
    assert own == ["--" + key.replace("_", "-") for key in cli._COMMANDS[command].flags]
    assert {a.dest for a in actions} <= {*RunConfig._fields, "config"}


@pytest.mark.parametrize("argv", [["portrait", "--level", "-1e-3"], ["portrait", "--level=-1e-3"]])
def test_a_negative_value_in_exponent_form_is_a_value(argv):
    # argparse's own negative-number pattern has no exponent, so it read -1e-3 as a flag
    assert cli.make_config(cli.build_parser().parse_args(argv)).level == -0.001


def test_a_negative_lambda_in_exponent_form_reaches_the_config_check(capsys):
    assert cli.main(["classify", "--lambda", "-1e-3"]) == 1
    assert capsys.readouterr().err == "diracshoot: error: every lambda must be positive, with a finite square\n"


def test_exit_code_usage_errors(capsys):
    assert cli.main(["classify", "--lambda", "-1"]) == 1
    assert cli.main(["ground-state", "--m", "1", "--omega", "2"]) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 1
    capsys.readouterr()
    for command, flag in [("classify", "--lambda"), ("asymptotics", "--epsilon")]:
        assert cli.main([command]) == 1
        assert capsys.readouterr().err == f"diracshoot: error: {command} needs at least one {flag}\n"


def test_exit_code_computation_failure(monkeypatch, capsys):
    from diracshoot import shooting

    def boom(p, tol):
        raise shooting.BracketError("forced")

    monkeypatch.setattr(shooting, "bracket_search", boom)
    assert cli.main(["ground-state"]) == 2


def test_classify_command_json(tmp_path):
    out = tmp_path / "cls.json"
    rc = cli.main(["classify", "--lambda", "0.5", "--lambda", "10", "--out", str(out)])
    assert rc == 0
    env = json.loads(out.read_text())
    assert env["schema_version"] == "1"
    assert env["command"] == "classify"
    got = env["payload"]["classifications"]
    assert [c["lambda"] for c in got] == [0.5, 10.0]  # input order preserved
    assert got[0]["verdict"] == "A" and got[0]["node_count"] == 0
    assert got[1]["node_count"] >= 1


def test_envelope_json_roundtrip_lossless():
    env = cli.run_classify(RunConfig(lambdas=(0.5,)))
    text = cli.render_json(env)
    again = json.loads(text)
    assert again == json.loads(cli.render_json(again))
    r_event = again["payload"]["classifications"][0]["r_event"]
    assert r_event == env["payload"]["classifications"][0]["r_event"]


def test_determinism_byte_identical():
    cfg = RunConfig(lambdas=(0.5, 1.0, 2.0))
    a = cli.render_json(cli.run_classify(cfg))
    b = cli.render_json(cli.run_classify(cfg))
    assert a.encode() == b.encode()


def test_csv_schema_and_formatting(tmp_path):
    out = tmp_path / "cls.csv"
    rc = cli.main(["classify", "--lambda", "0.5", "--format", "csv", "--out", str(out)])
    assert rc == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    text = raw.decode("utf-8")
    lines = text.splitlines()
    assert lines[0] == cli.CSV_HEADERS["classify"]
    # 17 significant digits on numeric fields
    lam_field = lines[1].split(",")[0]
    assert lam_field == "0.5" or len(lam_field.replace(".", "").lstrip("0")) >= 16


def test_csv_seventeen_digits():
    assert cli._fmt17(0.1) == "0.10000000000000001"
    assert cli._fmt17(None) == ""
    assert cli._fmt17(True) == "true"


def test_portrait_csv_writes_trajectory_files(tmp_path):
    out = tmp_path / "p.csv"
    rc = cli.main(
        ["portrait", "--lambda", "0.5", "--format", "csv", "--out", str(out), "--resolution", "64"]
    )
    assert rc == 0
    assert out.exists()
    assert out.read_text().splitlines()[0] == cli.CSV_HEADERS["portrait"]
    traj_file = tmp_path / "p.csv.traj0.csv"
    assert traj_file.exists()
    assert traj_file.read_text().splitlines()[0] == "r,u,v,H"


def test_portrait_level_only():
    env = cli.run_portrait(RunConfig(resolution=64))
    assert env["payload"]["trajectories"] == []
    pieces = env["payload"]["level_set"]["pieces"]
    pts = np.array([q for piece in pieces for q in piece])
    d0 = np.min(np.hypot(pts[:, 0], pts[:, 1]))
    assert d0 < 1e-9  # zero level passes through the origin


def test_asymptotics_bound_is_the_derived_law(tmp_path):
    # bound_constant is mu^2 = m^2 - omega^2 whatever eps are requested, so
    # the README example is within the bound and each verdict stands alone
    out = tmp_path / "asym.json"
    argv = ["asymptotics", "--epsilon", "0.2", "--epsilon", "0.1", "--epsilon", "0.05"]
    assert cli.main([*argv, "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    assert not any(d.startswith("remainder bound exceeded") for d in env["diagnostics"])
    assert env["payload"]["bound_constant"] == 0.75
    alone = cli.run_asymptotics(RunConfig(epsilons=(0.05,)))
    verdict = {r["epsilon"]: r["bound_ok"] for r in env["payload"]["remainders"]}
    assert verdict[0.05] == alone["payload"]["remainders"][0]["bound_ok"]


def test_asymptotics_bound_limit_is_the_law_of_the_record():
    # bound_limit is mu^2 ln(1/eps)/eps bit for bit, computed in asymptotics;
    # at (1, 0.9) sup |h2|+|k2| passes it at every eps (ROADMAP item 19), and
    # the command says so once per eps
    from diracshoot import Params, asymptotics

    eps = (0.1, 0.05, 0.01)
    env = cli.run_asymptotics(RunConfig(omega=0.9, epsilons=eps))
    c = asymptotics.remainder_bound_constant(Params(1.0, 0.9))
    rows = env["payload"]["remainders"]
    assert [r["bound_limit"] for r in rows] == [c * math.log(1.0 / e) / e for e in eps]
    assert [r["bound_ok"] for r in rows] == [False] * 3
    assert sum(d.startswith("remainder bound exceeded") for d in env["diagnostics"]) == 3


def test_asymptotics_resolves_the_crosscheck():
    # the subtraction route is taken at the rescaled run's step ends, whose
    # error over eps^4 stays well below the remainder: the README example
    # prints no diagnostic, and eps = 0.0125 resolves at omega = 0.5 and 0.9
    # (4.4e-5 and 6.8e-5 against 2.0e-2 and 3.1e-2 from grid samples)
    from diracshoot.asymptotics import CROSSCHECK_REL_BOUND

    env = cli.run_asymptotics(RunConfig(epsilons=(0.2, 0.1, 0.05)))
    assert env["diagnostics"] == []
    assert max(r["crosscheck_rel"] for r in env["payload"]["remainders"]) < 1e-5
    for omega in (0.5, 0.9):
        env = cli.run_asymptotics(RunConfig(omega=omega, epsilons=(0.0125,)))
        (rec,) = env["payload"]["remainders"]
        assert rec["crosscheck_rel"] < CROSSCHECK_REL_BOUND
        assert not any(d.startswith("crosscheck unresolved") for d in env["diagnostics"])


def test_asymptotics_at_a_short_horizon_T(tmp_path):
    # at T = 0.1 the rescaled run starts below T / 2, not at r = 0.68 where
    # it starts for 1/eps, so its distance to the bubble has samples up to T
    out = tmp_path / "asym.json"
    assert cli.main(["asymptotics", "--epsilon", "0.2", "--epsilon", "0.1", "--T", "0.1", "--out", str(out)]) == 0
    env = json.loads(out.read_text())
    errs = env["payload"]["study"]["sup_errors"]
    assert env["diagnostics"] == [] and all(0.0 < e < 1e-2 for e in errs)


def test_asymptotics_integrates_the_rescaled_flow_once_per_epsilon(monkeypatch):
    # per eps one joint solve to 1/eps and one rescaled solve to
    # max(1/eps, T): that run serves the remainder's subtraction route and
    # the node radius up to 1/eps and the distance to the bubble up to T;
    # the log-law fit reads the closed form and integrates nothing
    from diracshoot import asymptotics

    real_rescaled, real_solve = asymptotics.integrate_rescaled, asymptotics.solve
    calls, runs = [], []

    def counted(eps, *args, **kwargs):
        calls.append(eps)
        return real_rescaled(eps, *args, **kwargs)

    def counted_solve(f, r_span, y0, **kwargs):
        runs.append((len(y0), r_span[1]))
        return real_solve(f, r_span, y0, **kwargs)

    monkeypatch.setattr(asymptotics, "integrate_rescaled", counted)
    monkeypatch.setattr(asymptotics, "solve", counted_solve)
    eps = (0.2, 0.1, 0.05)  # 1/eps below, at and beyond T = 10
    cli.run_asymptotics(RunConfig(epsilons=eps))
    assert calls == list(eps)
    assert runs == [run for e in eps for run in ((4, 1.0 / e), (2, max(1.0 / e, 10.0)))]


def test_asymptotics_and_verify_csv(tmp_path, monkeypatch):
    # under the header one row per eps or per check; asymptotics numbers at
    # 17 significant digits, so they read back exactly, and no ratio on the
    # first row; --out holds render_csv of the envelope the command returned
    import csv

    from diracshoot import verify as verify_mod

    envelopes = {}

    def kept(run):
        def runner(cfg):
            envelopes[run.__name__] = run(cfg)
            return envelopes[run.__name__]

        return runner

    for command in ("asymptotics", "verify"):
        monkeypatch.setitem(cli._RUNNERS, command, kept(cli._RUNNERS[command]))
    # the second check's detail holds a comma, which its quoted field keeps
    checks = [verify_mod.check_equilibria, verify_mod.check_taylor_consistency]
    monkeypatch.setattr(verify_mod, "ALL_CHECKS", checks)
    asym, ver = tmp_path / "asym.csv", tmp_path / "verify.csv"
    eps = ["--epsilon", "0.2", "--epsilon", "0.1"]
    assert cli.main(["asymptotics", *eps, "--format", "csv", "--out", str(asym)]) == 0
    assert cli.main(["verify", "--format", "csv", "--out", str(ver)]) == 0

    env, text = envelopes["run_asymptotics"], asym.read_text()
    assert text == cli.render_csv(env)
    assert text.splitlines()[0] == cli.CSV_HEADERS["asymptotics"]
    rows = list(csv.DictReader(text.splitlines()))
    study, recs = env["payload"]["study"], env["payload"]["remainders"]
    assert [row["ratio"] for row in rows] == ["", cli._fmt17(study["ratios"][0])]
    for i, row in enumerate(rows):
        expected = {
            "epsilon": recs[i]["epsilon"],
            "sup_error": study["sup_errors"][i],
            "remainder_sup": recs[i]["sup_norm"],
            "bound_limit": recs[i]["bound_limit"],
            "crosscheck_rel": recs[i]["crosscheck_rel"],
        }
        for key, value in expected.items():
            assert row[key] == format(value, ".17g") and float(row[key]) == value
        assert row["threshold_ok"] == "true" and row["node_radius"] == ""

    env, text = envelopes["run_verify"], ver.read_text()
    assert text == cli.render_csv(env)
    header, *rows = csv.reader(text.splitlines())
    assert ",".join(header) == cli.CSV_HEADERS["verify"]
    results = env["payload"]["checks"]
    assert rows == [[r["name"], r["module"], "true", r["detail"]] for r in results]
    assert len(rows) == len(checks) and "," in results[1]["detail"]


def test_verify_csv_doubles_the_quotes_inside_a_detail(monkeypatch):
    # a check that raises has its error's repr as its detail; a '"' in it is
    # doubled inside the quoted field (RFC 4180), so csv.reader reads it whole
    import csv

    from diracshoot import verify as verify_mod

    monkeypatch.setattr(verify_mod, "ALL_CHECKS", [verify_mod.check_equilibria])

    @verify_mod._check("radial-core")
    def check_bad(p, tol):
        raise ValueError("can't")

    env = cli.run_verify(RunConfig(format="csv"))
    header, *rows = csv.reader(cli.render_csv(env).splitlines())
    assert ",".join(header) == cli.CSV_HEADERS["verify"]
    assert rows == [[c["name"], c["module"], str(c["passed"]).lower(), c["detail"]] for c in env["payload"]["checks"]]
    assert rows[1] == ["bad", "radial-core", "false", 'raised ValueError("can\'t")']


@pytest.mark.parametrize("rmax", [10.0, 20.0])
def test_profile_anchored_at_the_horizon_ends_there(rmax):
    # the closest approach lies at the horizon: no tail samples repeat r = rmax,
    # and the run names the horizon
    env = cli.run_ground_state(RunConfig(rmax=rmax))
    r = np.asarray(env["payload"]["profile"]["r"])
    assert np.all(np.diff(r) > 0) and r[-1] == env["payload"]["anchor_r"] == rmax
    assert f"closest approach at the horizon r={rmax:g}: no decay tail; raise --rmax" in env["diagnostics"]
    rows = cli.render_csv(env).splitlines()[1:]
    assert len(rows) == len(r)


def test_module_entry_point(capsys):
    # python -m diracshoot writes the in-process cli.main's bytes and exits with its code
    import subprocess
    import sys

    argv = ["classify", "--lambda", "0.5"]
    proc = subprocess.run([sys.executable, "-m", "diracshoot", *argv], capture_output=True)
    assert (proc.returncode, proc.stdout) == (cli.main(argv), capsys.readouterr().out.encode())
    assert json.loads(proc.stdout)["command"] == "classify"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "--lambda", "0.5"], 0),
        (["classify", "--lambda", "0.5", "--delta", "1e-9"], 1),  # argparse's SystemExit
        (["portrait", "--lambda", "1e76"], 2),
        (["verify"], 3),
    ],
    ids=["success", "usage", "computation", "verification"],
)
def test_process_entry_freezes_the_heap_once_after_the_output(argv, code, tmp_path, monkeypatch):
    # the entry of python -m diracshoot and the console script: main's code,
    # and one gc.freeze once the --out file is written; the freeze is recorded,
    # not made, as it would exempt the test process's heap from collection
    import gc

    from diracshoot import asymptotics
    from diracshoot.__main__ import run

    out = tmp_path / "out.json"
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(out.exists()))
    real = asymptotics.bubble
    monkeypatch.setattr(asymptotics, "bubble", lambda r: (real(r)[0] * 1.001, real(r)[1]))  # trips verify
    assert _exit_code([*argv, "--out", str(out)], run) == code
    assert frozen == [code in (0, 3)]


def test_in_process_main_freezes_nothing(tmp_path):
    # cli.main leaves the heap to its caller: the tests, verify and the benchmark's shim
    import gc

    before = gc.get_freeze_count()
    assert cli.main(["classify", "--lambda", "0.5", "--out", str(tmp_path / "c.json")]) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_output_write_is_one_line_error():
    # the write fails after the computation: exit 1 and one stderr line, with
    # no traceback, whether --out or stdout is full
    import subprocess
    import sys

    argv = ["classify", "--lambda", "0.5"]
    msg = _assert_one_line_failure([*argv, "--out", "/dev/full"], 1, "diracshoot: error: ")
    assert msg == "diracshoot: error: output not written: [Errno 28] No space left on device"
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "diracshoot", *argv], stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 1 and proc.stderr.splitlines() == [msg]


def test_closed_stdout_is_one_line_error():
    # a reader that has gone (as in `| head`): the same one line, and the
    # interpreter's final flush of the unwritten output goes to devnull
    import subprocess
    import sys

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "diracshoot", "classify", "--lambda", "0.5"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["diracshoot: error: output not written: [Errno 32] Broken pipe"]


def test_verify_command_passes():
    assert cli.main(["verify", "--out", "/dev/null"]) == 0


def test_verify_negative_control(monkeypatch):
    # a corrupted bubble formula must trip the suite and exit 3
    from diracshoot import asymptotics

    real = asymptotics.bubble

    def corrupted(r):
        u0, v0 = real(r)
        return u0 * 1.001, v0

    monkeypatch.setattr(asymptotics, "bubble", corrupted)
    assert cli.main(["verify", "--out", "/dev/null"]) == 3


def test_verify_loose_tolerance_still_passes_monotonicity():
    # energy-monotonicity bounds scale with the requested tolerance
    from diracshoot import verify as verify_mod
    from diracshoot import Params, Tolerances

    res = verify_mod.check_energy_monotone(Params(), Tolerances(rel=1e-2, abs=1e-2).resolved(Params()))
    assert res.passed


_IMPORT_CLI = """
import json, sys
import diracshoot.cli

print(json.dumps([name in sys.modules for name in ("dataclasses", "inspect")]))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses imports inspect, and with it ast, dis and tokenize: about 9 ms
    # of the package import; the records that check their fields (Params,
    # Tolerances, RunConfig) are NamedTuples built through their _check, so a
    # fresh interpreter's CLI import loads neither module
    import enum
    import subprocess
    import sys

    import diracshoot

    proc = subprocess.run([sys.executable, "-c", _IMPORT_CLI], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False]
    # every record of the public names and the CLI's is a NamedTuple, but the plain class Trajectory
    classes = [getattr(diracshoot, name) for name in diracshoot.__all__] + [cli.RunConfig]
    records = [c for c in classes if isinstance(c, type) and not issubclass(c, (BaseException, enum.Enum))]
    assert all(hasattr(c, "_fields") for c in records if c.__name__ != "Trajectory")
    assert {"Params", "Tolerances", "RunConfig"} <= {c.__name__ for c in records}


_NUMPY_AT_FIRST_USE = """
import contextlib, io, json, os, sys

seen = {}
import diracshoot
seen["import diracshoot"] = "numpy" in sys.modules
from diracshoot import cli
seen["import diracshoot.cli"] = "numpy" in sys.modules
os.chdir(sys.argv[1])
for argv in (
    # a start in the capture region, a node, a large datum, a failed run, an overflowing start
    ["classify", "--lambda", "0.5", "--lambda", "2.0", "--lambda", "1e8", "--lambda", "1e76", "--lambda", "1e80"],
    ["classify", "--lambda", "0.5", "--lambda", "2.0", "--format", "csv"],
    ["portrait", "--lambda", "0.5", "--lambda", "2.0", "--level", "-0.03"],
    ["portrait", "--lambda", "0.5", "--lambda", "2.0", "--format", "csv", "--out", "p.csv"],
    ["ground-state"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen[" ".join(argv)] = [code, "numpy" in sys.modules]
print(json.dumps(seen))
"""


def test_only_the_array_commands_import_numpy(tmp_path):
    # numpy is imported at its first use: the package import and the radial
    # commands, classify and portrait (with the trajectory files of its CSV),
    # never load it, in a fresh interpreter; ground-state does
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_AT_FIRST_USE, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    *radial, (gs_code, gs_numpy) = seen.values()
    assert radial == [False, False] + [[0, False]] * 4
    assert (gs_code, gs_numpy) == (0, True)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "p.csv.traj0.csv", "p.csv.traj1.csv"]


def test_no_command_loads_scipy():
    # the runtime needs numpy alone: with scipy made unimportable and numpy's
    # least-squares routines (LAPACK) raising, all five README commands still
    # succeed, and no scipy or numpy.ma module gets loaded
    import subprocess
    import sys
    from pathlib import Path

    probe = Path(__file__).with_name("runtime_probe.py")
    proc = subprocess.run([sys.executable, str(probe)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["codes"] == dict.fromkeys(
        ("classify", "ground-state", "asymptotics", "portrait", "verify"), 0
    )
    assert seen["loaded"] == []


def test_readme_python_blocks_run_as_documented():
    # every python block of the README, run in order in one namespace as a
    # reader would paste them, gives the values its comments print
    import ast
    import re
    from pathlib import Path

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    ns: dict = {}
    for block in re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S):
        exec(block, ns)
    printed = dict(re.findall(r"^(radial\.stats|gs\.lambda_star) +# (\{.*?\}|[\d.]+)", readme, re.M))
    assert printed == {
        "radial.stats": "{'nfev': 1058, 'naccpt': 77, 'nrejct': 12, 'nbisect': 0}",
        "gs.lambda_star": "1.807896148723",
    }
    assert ns["radial"].stats == ast.literal_eval(printed["radial.stats"])
    assert repr(ns["gs"].lambda_star).startswith(printed["gs.lambda_star"])


@pytest.mark.parametrize(
    "eps, diag",
    [
        ((0.2, 0.1), None),
        ((0.1, 0.2), "epsilon list sorted into decreasing order"),
        ((0.5, 0.5), "epsilon list deduplicated"),
        ((0.2, 0.2, 0.1), "epsilon list deduplicated"),
        ((0.1, 0.2, 0.1), "epsilon list deduplicated and sorted into decreasing order"),
    ],
)
def test_asymptotics_names_how_the_epsilon_list_was_normalized(tmp_path, eps, diag):
    # the diagnostic says what was done to the list, and only when it changed
    out = tmp_path / "asym.json"
    argv = ["asymptotics", *(a for e in eps for a in ("--epsilon", str(e))), "--out", str(out)]
    assert cli.main(argv) == 0
    env = json.loads(out.read_text())
    assert env["payload"]["study"]["epsilons"] == sorted(set(eps), reverse=True)
    notes = [d for d in env["diagnostics"] if d.startswith("epsilon list")]
    assert notes == ([diag] if diag else [])


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--lambda", "1", "--tol-rel", "-1"],
        ["classify", "--lambda", "1", "--r0", "1e-6"],  # no such flag
        ["ground-state", "--rmax", "-5"],
        ["asymptotics", "--epsilon", "0.2", "--T", "-1"],
        ["asymptotics", "--epsilon", "0.2", "--T", "0"],
        # below asymptotics.T_MIN = 1e-150, where the rescaled run's start squares to a subnormal
        ["asymptotics", "--epsilon", "0.2", "--T", "1e-320"],
        ["asymptotics", "--epsilon", "0.5", "--epsilon", "0.25", "--T", "1e-200"],
        ["portrait", "--resolution", "-3"],
        ["portrait", "--resolution", "0"],
        ["ground-state", "--lambda-tol", "1e-3"],  # no such flag
        ["ground-state", "--rmax", "inf"],
        ["asymptotics", "--epsilon", "0.2", "--T", "inf"],
        ["classify", "--lambda", "inf"],
        ["classify", "--lambda", "1e300"],
        ["classify", "--lambda", "nan"],
        ["classify", "--lambda", "1", "--m", "inf"],
        ["portrait", "--level", "nan", "--lambda", "0.5"],
        ["portrait", "--level=-inf"],
        ["ground-state", "--eta", "1e-8"],  # no such flag
        ["classify", "--lambda", "1", "--delta", "1e-9"],  # no such flag
        # (m - omega)^2 overflows, or 1e-8 of it underflows to 0
        ["ground-state", "--m", "1e160", "--omega", "5e159"],
        ["ground-state", "--m", "1e-160", "--omega", "5e-161"],
        # m - omega = 1e149 is in range, but m^2 - omega^2 overflows to nan
        ["ground-state", "--m", "1e155", "--omega", str(1e155 - 1e149)],
        # horizons below 1e-303 decay lengths 1/mu: the Bessel quadrature's range
        # overflowed (an OverflowError), and from 5e-324 on the series start sat at
        # r = 0, where the radial flow raised (a ValueError); both were tracebacks
        ["ground-state", "--rmax", "1e-310"],
        ["ground-state", "--rmax", "5e-324"],
        ["classify", "--lambda", "1", "--rmax", "5e-324"],
        ["portrait", "--lambda", "0.5", "--rmax", "5e-324"],
        # exit 0 after two lines of numpy's overflow warning from the certificate
        ["classify", "--lambda", "1", "--rmax", "1e-310"],
        # the level set's top radicand overflows from 4.5e307 at (1, 0.5), where it printed null and Infinity
        ["portrait", "--level", "1e308"],
        ["portrait", "--level", "4.5e307", "--lambda", "0.5"],
        # (m + omega)^2 overflows, so even the default level 0 printed inf points
        ["portrait", "--m", "1.2e154", "--omega", "1.19999e154"],
        # a prefix of a flag is no flag (it set --lambdas, --resolution and --rmax)
        ["classify", "--lamb", "2"],
        ["portrait", "--res", "3"],
        ["ground-state", "--r", "30"],
    ],
)
def test_invalid_settings_are_usage_errors(argv, capsys):
    # each fails in RunConfig, or in argparse, before any computation, so it
    # runs in-process; test_module_entry_point covers python -m
    assert _exit_code(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("diracshoot: error: ")


def test_unwritable_output_path_fails_before_the_computation(tmp_path, monkeypatch, capsys):
    # --out in a missing directory, or naming a directory, is checked with
    # the settings, so no computation runs only for its result to be lost to
    # a failed write
    def computed(cfg):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli._RUNNERS, "classify", computed)
    missing = tmp_path / "nonexistent" / "dir" / "x.json"
    for out, message in [
        (missing, f"output directory {str(missing.parent)!r} does not exist"),
        (tmp_path, f"output path {str(tmp_path)!r} is a directory"),
    ]:
        assert cli.main(["classify", "--lambda", "0.5", "--out", str(out)]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.splitlines() == ["diracshoot: error: " + message]
    assert not missing.parent.exists()


def test_error_norm_past_the_float_range_is_a_computation_failure(capsys):
    # at eps = 1e-100 the rescaled run's state leaves the float range near
    # r = 8.3e54: the error norms of the steps after it are NaN, so each is
    # rejected until the step size underflows (about 0.4 s).  At eps = 1e-31
    # the run now completes, with a node radius that is noise (ROADMAP item 7)
    assert cli.main(["asymptotics", "--epsilon", "1e-100"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("diracshoot: computation failed: step size underflow at r=8.28")


def test_epsilon_past_the_rescaled_parameter_floor_is_a_usage_error(monkeypatch, capsys):
    # at eps = 1e-200 the rescaled mass eps^2 m underflows to 0, which no Params holds: RunConfig
    # refuses it before any computation (it ran 23 s to its step budget, exit 2), naming eps
    monkeypatch.setitem(cli._RUNNERS, "asymptotics", lambda cfg: pytest.fail("the command ran"))
    assert cli.main(["asymptotics", "--epsilon", "0.2", "--epsilon", "1e-200"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("diracshoot: error: at eps = 1e-200 the rescaled")


def test_portrait_of_a_datum_that_is_not_captured_is_a_computation_failure():
    # the README's lambda* is an I-candidate, so it has no spiral to follow
    msg = _assert_one_line_failure(
        ["portrait", "--lambda", "1.8078961487234297"], 2, "diracshoot: computation failed: "
    )
    assert "needs a captured datum" in msg


def test_portrait_of_a_datum_whose_horizon_run_fails_is_a_computation_failure():
    # at 1e76 the step size underflows at the series start: classify calls
    # the datum undecided, and the portrait's horizon run raises that failure
    msg = _assert_one_line_failure(["portrait", "--lambda", "1e76"], 2, "diracshoot: computation failed: ")
    assert msg.startswith("diracshoot: computation failed: step size underflow at r=")


def test_horizon_too_short_for_the_tail_is_a_computation_failure():
    # the search converges, but no decay window lies before the anchor
    _assert_one_line_failure(["ground-state", "--rmax", "1"], 2, "diracshoot: computation failed: ")


def test_horizon_too_short_to_classify_is_blamed_on_the_horizon():
    # the guaranteed node-free first datum is undecided at rmax = 1e-5, so
    # the bracket search stops there instead of doubling the datum
    msg = _assert_one_line_failure(["ground-state", "--rmax", "1e-5"], 2, "diracshoot: computation failed: ")
    assert "horizon rmax = 1e-05" in msg
    assert "no sign change" not in msg


def test_tiny_horizon_is_no_usage_error(capsys):
    # no start radius bounds the horizon from below: the series start caps at
    # rmax / 2, so classify reports the datum undecided at the horizon, and the
    # search fails on its node-free first datum
    assert RunConfig(rmax=1e-6).rmax == 1e-6
    assert cli.main(["classify", "--lambda", "1", "--rmax", "1e-9"]) == 0
    (c,) = json.loads(capsys.readouterr().out)["payload"]["classifications"]
    assert (c["verdict"], c["node_count"], c["r_event"]) == ("undecided", 0, 1e-9)
    msg = _assert_one_line_failure(["ground-state", "--rmax", "1e-9"], 2, "diracshoot: computation failed: ")
    assert "horizon is too short" in msg


@pytest.mark.parametrize(
    "argv, key",
    [
        # the runs start from their series, so r0 is no key, as it is no flag
        (["classify", "--lambda", "1"], "r0"),
        # the search stops at the width its tolerance supports
        (["ground-state"], "lambda_tol"),
        # the capture thresholds are the classifier's, fixed in shooting
        (["classify", "--lambda", "1"], "eta"),
        (["ground-state"], "delta"),
    ],
    ids=["r0", "lambda_tol", "eta", "delta"],
)
def test_removed_settings_are_no_config_file_keys(tmp_path, capsys, argv, key):
    cfgfile = tmp_path / f"{key}.cfg"
    cfgfile.write_text(f"{key} = 1e-3\n")
    assert cli.main([*argv, "--config", str(cfgfile)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"diracshoot: error: {cfgfile}:1: unknown key {key!r}\n"


@pytest.mark.parametrize("lam", ["1e5", "1e8", "1e60", "1e70"])
def test_large_datum_is_decided(lam):
    # the start radius shrinks like 1/lambda^2 (1e-22 at 1e8), and the
    # step-size floor is relative to r, so the steps follow it down and the
    # run is captured after its nodes, one at 1e5 and 1e8, where the first is
    # the closed form first_node (the run alone finds none at 1e8).  At 1e70 the
    # initial step size's norms square terms past the float range, so they
    # factor out the largest term; the node counts of 1e60 and 1e70 still
    # change with the tolerance, so only the verdict is asserted there
    from diracshoot import Params, Tolerances, classify

    c = classify(float(lam), Params(), Tolerances())
    assert c.verdict == "A"
    if lam in ("1e5", "1e8"):
        assert c.node_count == 1


@pytest.mark.parametrize("lam", ["1e80", "1e100", "1e154"])
def test_huge_datum_is_undecided(lam):
    # from about 1e78 the start's energy overflows, so no step is taken;
    # stderr stays empty and stdout is strict JSON
    import subprocess
    import sys

    from diracshoot import Params, Tolerances, classify

    proc = subprocess.run(
        [sys.executable, "-m", "diracshoot", "classify", "--lambda", lam],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    (c,) = json.loads(proc.stdout, parse_constant=reject)["payload"]["classifications"]
    assert (c["verdict"], c["node_count"]) == ("undecided", 0)
    note = classify(float(lam), Params(), Tolerances()).note
    assert note.startswith("float overflow")


@pytest.mark.parametrize(
    "argv",
    [
        ["--lambda", "1.5", "--lambda", "1e-20", "--lambda", "1e76", "--lambda", "1e80"],
        ["--m", "0.5", "--omega", "0.25", "--lambda", "0.6"],
    ],
)
def test_classify_event_is_the_summary_end(argv, tmp_path):
    # a run stops where it is decided, so each row's r_event and H_event are
    # its summary's r_end and H_end: a capture, a run undecided at the
    # horizon (1e-20), a failed one (1e76), one without a step (1e80, both
    # null) and one that starts captured, a single sample
    out = tmp_path / "c.json"
    assert cli.main(["classify", *argv, "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["payload"]["classifications"]
    assert [(c["r_event"], c["H_event"]) for c in rows] == [(c["summary"]["r_end"], c["summary"]["H_end"]) for c in rows]
    assert rows[-1]["summary"]["samples"] <= 1  # 1e80 takes no step, 0.6 starts captured


def _exit_code(argv, entry=cli.main):
    """The entry's return value, or the code argparse exits with."""
    try:
        return entry(argv)
    except SystemExit as stop:
        return stop.code


def _assert_one_line_failure(argv, code, prefix):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "diracshoot", *argv], capture_output=True, text=True
    )
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)
    return lines[0]


_EXTREMES = [math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e22, 1e-7]
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from(_EXTREMES)
    | st.text()
    | st.sampled_from(["a, b", '"q", "r"', "é, ü, ∞", "\\", ""])
)
_PLAIN_LISTS = st.lists(st.floats() | st.sampled_from(_EXTREMES) | st.integers() | st.none() | st.booleans())
_TREES = st.recursive(
    _LEAVES | _PLAIN_LISTS,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(st.text(), kids),
    max_leaves=20,
)


@given(_TREES)
@settings(max_examples=100, deadline=None)
def test_render_json_is_the_json_dumps_layout(x):
    assert cli.render_json(x) == json.dumps(x, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "run, cfg",
    [
        (cli.run_ground_state, RunConfig()),
        (cli.run_classify, RunConfig(lambdas=(0.5, 1.8, 10.0))),
        (cli.run_asymptotics, RunConfig(epsilons=(0.2, 0.1))),
        (cli.run_portrait, RunConfig(lambdas=(0.5,), resolution=32)),
        (cli.run_verify, RunConfig()),
    ],
    ids=["ground-state", "classify", "asymptotics", "portrait", "verify"],
)
def test_render_json_is_the_json_dumps_layout_on_envelopes(run, cfg):
    env = run(cfg)
    got, want = cli.render_json(env), json.dumps(env, indent=2, sort_keys=True) + "\n"
    # a boolean, so a failure reports the first difference instead of a slow
    # line diff of two large texts
    same = got == want
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    assert same, f"first difference at {i}: {got[i - 30:i + 30]!r} != {want[i - 30:i + 30]!r}"


def test_jsonable_arrays():
    # a 1-D float array in one pass with NaN -> None; -0.0 and inf kept
    out = cli._jsonable(np.array([1.5, np.nan, -0.0, np.inf]))
    assert out[0] == 1.5 and out[1] is None and out[3] == math.inf
    assert math.copysign(1.0, out[2]) == -1.0
    assert all(type(x) is float for x in (out[0], out[2], out[3]))
    f32 = cli._jsonable(np.array([0.5, np.nan], dtype=np.float32))
    assert f32 == [0.5, None] and type(f32[0]) is float
    ints = cli._jsonable(np.array([3, -1], dtype=np.int64))
    assert ints == [3, -1] and all(type(x) is int for x in ints)
    assert cli._jsonable(np.array([[1.0, np.nan], [2.0, 3.0]])) == [[1.0, None], [2.0, 3.0]]
    assert cli._jsonable(np.array([], dtype=float)) == []


def test_jsonable_records_are_objects():
    # a NamedTuple record is a tuple, but its JSON is an object keyed by its
    # fields, not an array; a plain tuple stays an array
    from diracshoot import Certificate

    cert = Certificate(2.5, -0.01, 0.2, 0.3, float("nan"))
    assert cli._jsonable({"c": cert, "t": (1.0, 2.0)}) == {
        "c": {"R": 2.5, "H_at_R": -0.01, "uv_product": 0.2, "v_squared": 0.3, "C0": None},
        "t": [1.0, 2.0],
    }


@pytest.mark.parametrize(
    "run, cfg",
    [
        (cli.run_ground_state, RunConfig()),
        # a capture at the series start, two full runs, a step-size underflow
        # (IntegrationError) and a start energy past the float range
        (cli.run_classify, RunConfig(lambdas=(0.5, 1.8, 3.0, 1e76, 1e80))),
        (cli.run_asymptotics, RunConfig(epsilons=(0.2, 0.1))),
        (cli.run_portrait, RunConfig(lambdas=(0.5, 2.0), resolution=32)),
        (cli.run_verify, RunConfig()),
    ],
    ids=["ground-state", "classify", "asymptotics", "portrait", "verify"],
)
def test_envelopes_hold_only_json_types(run, cfg):
    # _jsonable turns arrays, NaN and NamedTuple records into these; no command
    # hands it an enum or a numpy scalar
    seen = set()

    def walk(x):
        seen.add(type(x))
        for v in [*x, *x.values()] if type(x) is dict else x if type(x) is list else ():
            walk(v)

    env = run(cfg)
    walk(env)
    assert seen <= {dict, list, str, int, float, bool, type(None)}
    if run is cli.run_classify:
        samples = [c["summary"]["samples"] for c in env["payload"]["classifications"]]
        assert samples[0] == samples[3] == 1 and min(samples[1:3]) > 1 and samples[4] == 0


def test_payload_records_keep_their_schema(monkeypatch):
    # library records are serialized whole, so a new field would change the
    # CLI schema; these key sets pin it
    from diracshoot import verify as verify_mod

    (c,) = cli.run_classify(RunConfig(lambdas=(1.5,)))["payload"]["classifications"]
    assert set(c["certificate"]) == {"R", "H_at_R", "uv_product", "v_squared", "C0"}
    env = cli.run_asymptotics(RunConfig(epsilons=(0.5,)))
    assert set(env["payload"]["study"]) == {"epsilons", "sup_errors", "ratios", "node_radii", "T"}
    assert set(env["payload"]["log_fit"]) == {
        "c",
        "intercept",
        "max_rel_residual",
        "h1_sup",
        "window",
    }
    monkeypatch.setattr(
        verify_mod, "ALL_CHECKS", [verify_mod.check_equilibria, verify_mod.check_bubble_exactness]
    )
    checks = cli.run_verify(RunConfig())["payload"]["checks"]
    assert len(checks) == 2
    for check in checks:
        assert set(check) == {"name", "module", "passed", "detail"}
