import json
import math

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
    with pytest.raises(ConfigError):
        RunConfig(rmax=1e-6)  # at the series start radius r0 no step is left


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


def test_flag_overrides_config(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("omega = 0.25\nlambda = 0.5\n")
    parser = cli.build_parser()
    args = parser.parse_args(["classify", "--config", str(cfgfile), "--omega", "0.75"])
    cfg = cli.make_config(args)
    assert cfg.omega == 0.75  # flag wins
    assert cfg.lambdas == (0.5,)  # config survives


def test_exit_code_usage_errors(capsys):
    assert cli.main(["classify", "--lambda", "-1"]) == 1
    assert cli.main(["ground-state", "--m", "1", "--omega", "2"]) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["not-a-command"])
    assert exc.value.code == 1


def test_exit_code_computation_failure(monkeypatch, capsys):
    from diracshoot import shooting

    def boom(p, tol, max_factor=1e6):
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


def test_asymptotics_flags_unresolved_crosscheck():
    # the subtraction route carries the Hermite error of the rescaled samples
    # divided by eps^4, so below eps ~ 0.1 its crosscheck no longer resolves
    # the remainder and the run says so
    from diracshoot.asymptotics import CROSSCHECK_REL_BOUND

    env = cli.run_asymptotics(RunConfig(epsilons=(0.2, 0.1, 0.05)))
    rel = {r["epsilon"]: r["crosscheck_rel"] for r in env["payload"]["remainders"]}
    assert rel[0.2] < CROSSCHECK_REL_BOUND <= rel[0.1] < rel[0.05]
    flagged = [d for d in env["diagnostics"] if d.startswith("crosscheck unresolved")]
    assert flagged == [
        f"crosscheck unresolved at eps={eps:g}: rel {rel[eps]:.2e} >= 1e-04" for eps in (0.1, 0.05)
    ]
    assert not any(d.startswith("remainder bound exceeded") for d in env["diagnostics"])


def test_asymptotics_integrates_the_rescaled_flow_twice_per_epsilon(monkeypatch):
    # per eps one run on [r0, T] for the distance to the bubble and one run to
    # 1/eps, which the remainder's subtraction route and the node radius share
    from diracshoot import asymptotics

    real = asymptotics.integrate_rescaled
    calls = []

    def counted(eps, *args, **kwargs):
        calls.append(eps)
        return real(eps, *args, **kwargs)

    monkeypatch.setattr(asymptotics, "integrate_rescaled", counted)
    eps = (0.2, 0.1, 0.05)
    cli.run_asymptotics(RunConfig(epsilons=eps))
    assert sorted(calls, reverse=True) == [e for e in eps for _ in range(2)]


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "diracshoot", "classify", "--lambda", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "classify"


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


_SCIPY_PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from diracshoot import cli

codes = {}
for argv in (
    ["classify", "--lambda", "0.5"],
    ["ground-state"],
    ["asymptotics", "--epsilon", "0.5"],
    ["portrait", "--lambda", "0.5", "--resolution", "16"],
    ["verify"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = cli.main(argv)
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_no_command_loads_scipy():
    # the runtime needs numpy alone: with scipy made unimportable, all five
    # README commands still succeed and no scipy module gets loaded
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["codes"] == dict.fromkeys(
        ("classify", "ground-state", "asymptotics", "portrait", "verify"), 0
    )
    assert seen["loaded"] == []


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
        ["classify", "--lambda", "1", "--r0", "0"],
        ["ground-state", "--rmax", "-5"],
        ["asymptotics", "--epsilon", "0.2", "--T", "-1"],
        ["portrait", "--resolution", "-3"],
        ["portrait", "--resolution", "0"],
        ["classify", "--lambda", "1", "--rmax", "1e-9"],
        ["ground-state", "--lambda-tol", "nan"],
        ["ground-state", "--lambda-tol=-1e-9"],
        ["ground-state", "--rmax", "inf"],
        ["asymptotics", "--epsilon", "0.2", "--T", "inf"],
        ["classify", "--lambda", "inf"],
        ["classify", "--lambda", "1e300"],
        ["classify", "--lambda", "nan"],
        ["classify", "--lambda", "1", "--m", "inf"],
        ["portrait", "--level", "nan", "--lambda", "0.5"],
        ["portrait", "--level=-inf"],
    ],
)
def test_invalid_settings_are_usage_errors(argv):
    _assert_one_line_failure(argv, 1, "diracshoot: error: ")


def test_portrait_of_a_datum_that_is_not_captured_is_a_computation_failure():
    # the README's lambda* is an I-candidate, so it has no spiral to follow
    msg = _assert_one_line_failure(
        ["portrait", "--lambda", "1.807896148637092"], 2, "diracshoot: computation failed: "
    )
    assert "needs a captured datum" in msg


def test_horizon_too_short_for_the_tail_is_a_computation_failure():
    # the search converges, but no decay window lies before the anchor
    _assert_one_line_failure(["ground-state", "--rmax", "1"], 2, "diracshoot: computation failed: ")


def test_horizon_too_short_to_classify_is_blamed_on_the_horizon():
    # the guaranteed node-free first datum is undecided at rmax = 1e-5, so
    # the bracket search stops there instead of doubling the datum
    msg = _assert_one_line_failure(["ground-state", "--rmax", "1e-5"], 2, "diracshoot: computation failed: ")
    assert "horizon rmax = 1e-05" in msg
    assert "no sign change" not in msg


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


def test_payload_records_keep_their_schema(monkeypatch):
    # library records are serialized whole, so a new field would change the
    # CLI schema; these key sets pin it
    from diracshoot import verify as verify_mod

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
