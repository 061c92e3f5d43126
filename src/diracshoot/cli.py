"""Command-line front end with deterministic JSON and CSV serialization.

Commands: ground-state, classify, asymptotics, portrait, verify.
Configuration precedence: command-line flags override config-file entries,
which override built-in defaults.  All output is reproducible bit for bit:
no timestamps, no randomness, floats serialized at full precision.

Exit codes: 0 success, 1 usage or parse error, 2 computation failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, NamedTuple

from . import asymptotics, phaseflow, shooting, verify as verify_mod
from .equations import hamiltonian
from .integrator import EventKind, IntegrationError
from .params import Params, Tolerances, checked
from .phaseflow import NotCapturedError

SCHEMA_VERSION = "1"
FORMATS = ("json", "csv")


class ConfigError(ValueError):
    pass


@checked
class RunConfig(NamedTuple):
    m: float = Params().m
    omega: float = Params().omega
    tol_rel: float = Tolerances().rel
    tol_abs: float = Tolerances().abs
    rmax: float | None = None
    lambdas: tuple[float, ...] = ()
    epsilons: tuple[float, ...] = ()
    T: float = 10.0
    level: float = 0.0
    resolution: int = 512
    format: str = "json"
    out: str | None = None

    def _check(self):
        for name, value in self._asdict().items():
            values = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(x) for x in values if isinstance(x, float)):
                raise ConfigError(f"{name} must be finite, got {value}")
        # Params and Tolerances hold the checks of their own fields, Tolerances.resolved those that join
        # the two, phaseflow.check_level_set those of level and resolution, and rescaled_params those of eps
        try:
            self.tolerances().resolved(self.params())
            if not self.T >= asymptotics.T_MIN:
                raise ValueError(f"T must be at least {asymptotics.T_MIN:g}, got {self.T:g}")
            phaseflow.check_level_set(self.level, self.params(), self.resolution)
            if any(not 0.0 < e < 1.0 for e in self.epsilons):
                raise ValueError("every epsilon must lie in (0, 1)")
            for e in self.epsilons:
                asymptotics.rescaled_params(e, self.params())
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if self.format not in FORMATS:
            raise ConfigError(f"format must be {' or '.join(FORMATS)}, got {self.format!r}")
        if not all(lam > 0 and math.isfinite(lam * lam) for lam in self.lambdas):
            raise ConfigError("every lambda must be positive, with a finite square")
        return self

    def params(self) -> Params:
        return Params(self.m, self.omega)

    def tolerances(self) -> Tolerances:
        return Tolerances(rel=self.tol_rel, abs=self.tol_abs, rmax=self.rmax)

    def echo(self) -> dict:
        # the fields are finite floats, ints, strings, None and float tuples
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self._asdict().items()}


# a field's parser: its annotation's string (a ForwardRef's) up to the first "[" or " | ", so float | None reads
# as float and tuple[float, ...] as tuple
def _kind(name: str) -> str:
    return RunConfig.__annotations__[name].__forward_arg__.split("[")[0].split(" | ")[0]


# each config-file key names a RunConfig field and, with dashes, is its flag; a tuple field (lambdas, epsilons)
# is keyed in the singular, like its repeated flag, and takes a list of floats
_CONFIG_FIELDS = {name.removesuffix("s") if _kind(name) == "tuple" else name: name for name in RunConfig._fields}
_PARSERS = {"float": float, "int": int, "str": str,
            "tuple": lambda text: tuple(float(tok) for tok in text.replace(",", " ").split())}
# the help of the flags that have one
_HELP = {"m": "mass parameter (default 1.0)", "omega": "frequency, 0 < omega < m", "rmax": "integration horizon",
         "out": "output path (default stdout)", "T": "comparison horizon (default 10)"}


def parse_config_file(path: str) -> dict:
    """Flat key = value format, # comments, unknown keys rejected."""
    values: dict = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        name = _CONFIG_FIELDS[key]
        try:
            values[name] = _PARSERS[_kind(name)](val)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}") from None
    return values


def _jsonable(x):
    if isinstance(x, float):
        return None if math.isnan(x) else x
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, tuple) and hasattr(x, "_asdict"):  # a record, an object and not an array
        return _jsonable(x._asdict())
    if isinstance(x, (list, tuple)):
        try:
            if not math.isnan(sum(x)):  # numbers, and no NaN among them, which the sum would be
                return list(x)
        except TypeError:  # not all numbers
            pass
        return [_jsonable(v) for v in x]
    if hasattr(x, "tolist"):  # a numpy array, whose list holds Python numbers
        return _jsonable(x.tolist())
    return x


def _envelope(command: str, cfg: RunConfig, payload: dict, diagnostics: list[str]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": cfg.echo(),
        "payload": _jsonable(payload),
        "diagnostics": list(diagnostics),
    }


def _fmt17(x) -> str:
    if type(x) is float:
        return format(x, ".17g")
    if x is None or isinstance(x, bool):
        return "" if x is None else "true" if x else "false"
    return str(x) if isinstance(x, int) else format(float(x), ".17g")


# --- commands ----------------------------------------------------------------


def _ruvh(r, u, v, p: Params) -> dict:
    """The r, u, v, H table of a trajectory's columns, arrays or lists of floats."""
    return {"r": r, "u": u, "v": v, "H": hamiltonian((u, v), p)}


def run_ground_state(cfg: RunConfig) -> dict:
    p, tol = cfg.params(), cfg.tolerances()
    gs = shooting.ground_state(p, tol)
    diags = []
    if not gs.converged:
        diags.append("bisection did not reach a node-free connection; best candidate reported")
    if gs.anchor_r == gs.profile.r[-1]:
        diags.append(f"closest approach at the horizon r={gs.anchor_r:g}: no decay tail; raise --rmax")
    payload = {**gs._asdict(), "profile": _ruvh(*gs.profile.columns, p)}
    del payload["history"]
    return _envelope("ground-state", cfg, payload, diags)


def run_classify(cfg: RunConfig) -> dict:
    p, tol = cfg.params(), cfg.tolerances()
    out = []
    for lam in cfg.lambdas:
        c = shooting.classify(lam, p, tol)
        out.append(
            {
                "lambda": lam,
                "verdict": c.verdict,
                "node_count": c.node_count,
                "r_event": c.summary["r_end"],
                "H_event": c.summary["H_end"],
                "certificate": c.certificate,
                "summary": c.summary,
                "v_sign_changes": [e.r for e in c.trajectory.events_of(EventKind.V_SIGN_CHANGE)]
                if c.trajectory else [],
            }
        )
    return _envelope("classify", cfg, {"classifications": out}, [])


def run_asymptotics(cfg: RunConfig) -> dict:
    p, tol = cfg.params(), cfg.tolerances()
    unique = tuple(dict.fromkeys(cfg.epsilons))
    eps_sorted = tuple(sorted(unique, reverse=True))
    done = ["deduplicated"] if unique != tuple(cfg.epsilons) else []
    done += ["sorted into decreasing order"] if eps_sorted != unique else []
    diags = ["epsilon list " + " and ".join(done)] if done else []
    records = asymptotics.integrate_remainder(eps_sorted, p, tol, cfg.T)
    study = asymptotics.convergence_study(records, cfg.T)
    fit = asymptotics.first_order_log_fit(p)
    # the fields of each record that the command prints, and its rel_discrepancy as crosscheck_rel
    keys = ("epsilon", "sup_norm", "threshold", "threshold_ok", "breach_r", "max_discrepancy",
            "bound_limit", "bound_ok")
    remainders = []
    for rec in records:
        if not rec.bound_ok:
            diags.append(
                f"remainder bound exceeded at eps={rec.epsilon:g}: "
                f"sup={rec.sup_norm:.6g} > {rec.bound_limit:.6g}"
            )
        if not rec.threshold_ok:
            diags.append(f"remainder threshold eps^-3/2 breached at eps={rec.epsilon:g}")
        if rec.rel_discrepancy >= asymptotics.CROSSCHECK_REL_BOUND:
            diags.append(
                f"crosscheck unresolved at eps={rec.epsilon:g}: "
                f"rel {rec.rel_discrepancy:.2e} >= {asymptotics.CROSSCHECK_REL_BOUND:.0e}"
            )
        remainders.append({**{k: getattr(rec, k) for k in keys}, "crosscheck_rel": rec.rel_discrepancy})
    bound_c = asymptotics.remainder_bound_constant(p)
    payload = {"study": study, "log_fit": fit, "bound_constant": bound_c, "remainders": remainders}
    return _envelope("asymptotics", cfg, payload, diags)


def run_portrait(cfg: RunConfig) -> dict:
    p, tol = cfg.params(), cfg.tolerances()
    pieces = phaseflow.level_set(cfg.level, p, resolution=cfg.resolution)
    trajectories = []
    for lam in cfg.lambdas:
        t = shooting.horizon_run(lam, p, tol)
        rep = phaseflow.attraction_report(t, p)
        trajectories.append({"lambda": lam, **rep._asdict(), **_ruvh(*t.columns, p)})
    payload = {
        "level": cfg.level,
        "level_set": {"pieces": list(pieces)},
        "trajectories": trajectories,
    }
    return _envelope("portrait", cfg, payload, [])


def run_verify(cfg: RunConfig) -> dict:
    p, tol = cfg.params(), cfg.tolerances()
    results = verify_mod.run_suite(p, tol)
    payload = {"checks": results, "all_passed": all(r.passed for r in results)}
    diags = [f"FAIL {r.module}/{r.name}: {r.detail}" for r in results if not r.passed]
    return _envelope("verify", cfg, payload, diags)


# --- rendering ---------------------------------------------------------------


_PLAIN = {float, int, bool, type(None)}


def _emit(x, pad: str, out: list) -> None:
    """Append x in the layout of json.dumps(x, indent=2, sort_keys=True)."""
    inner = pad + "  "
    if isinstance(x, (list, tuple)) and x and set(map(type, x)) <= _PLAIN:
        # plain numbers in one C-encoder call; none of their tokens holds ", "
        out.append("[\n" + inner + json.dumps(x)[1:-1].replace(", ", ",\n" + inner) + "\n" + pad + "]")
    elif isinstance(x, dict) and x:
        for i, k in enumerate(sorted(x)):
            out.append(("," if i else "{") + "\n" + inner + encode_basestring_ascii(k) + ": ")
            _emit(x[k], inner, out)
        out.append("\n" + pad + "}")
    elif isinstance(x, (list, tuple)) and x:
        for i, v in enumerate(x):
            out.append(("," if i else "[") + "\n" + inner)
            _emit(v, inner, out)
        out.append("\n" + pad + "]")
    elif type(x) is int or type(x) is float and math.isfinite(x):
        out.append(repr(x))  # json.dumps's float.__repr__ and int.__repr__
    elif x is None or type(x) is bool:
        out.append("null" if x is None else "true" if x else "false")
    else:
        out.append(json.dumps(x))  # a string, NaN, +-inf, {} or []


def render_json(envelope: dict) -> str:
    out: list[str] = []
    _emit(envelope, "", out)
    return "".join(out) + "\n"


def _csv_text(header: str, lines: list[str]) -> str:
    return "\n".join([header, *lines]) + "\n"


def _csv_row(*fields) -> str:
    """Comma-joined fields: strings as they are, anything else by _fmt17."""
    return ",".join(f if isinstance(f, str) else _fmt17(f) for f in fields)


def _csv_lines_ruvh(t) -> list[str]:
    """One r,u,v,H row per sample of a serialized trajectory."""
    return [",".join(map(_fmt17, row)) for row in zip(t["r"], t["u"], t["v"], t["H"])]


def _csv_lines_classify(payload) -> list[str]:
    lines = []
    for c in payload["classifications"]:
        cert_r = c["certificate"]["R"] if c["certificate"] else None
        event = (c["lambda"], c["verdict"], c["node_count"], c["r_event"], c["H_event"])
        lines.append(_csv_row(*event, c["summary"]["min_norm1"], cert_r))
    return lines


def _csv_lines_asymptotics(payload) -> list[str]:
    study = payload["study"]
    lines = []
    for i, rec in enumerate(payload["remainders"]):
        ratio = study["ratios"][i - 1] if i >= 1 else None
        fit = (rec["epsilon"], study["sup_errors"][i], ratio, study["node_radii"][i])
        keys = ("sup_norm", "threshold_ok", "bound_limit", "bound_ok", "crosscheck_rel")
        lines.append(_csv_row(*fit, *(rec[k] for k in keys)))
    return lines


def render_csv(envelope: dict) -> str:
    row = _COMMANDS[envelope["command"]]
    return _csv_text(row.csv_header, row.csv_lines(envelope["payload"]))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_output(envelope: dict, cfg: RunConfig) -> None:
    _write_text(cfg.out, render_json(envelope) if cfg.format == "json" else render_csv(envelope))
    if cfg.format == "csv" and envelope["command"] == "portrait" and cfg.out is not None:
        base = Path(cfg.out)
        for i, tr in enumerate(envelope["payload"]["trajectories"]):
            text = _csv_text(CSV_HEADERS["ground-state"], _csv_lines_ruvh(tr))
            _write_text(str(base.with_suffix(base.suffix + f".traj{i}.csv")), text)


# --- the command table and argument parsing ------------------------------------


class _Command(NamedTuple):
    help: str
    flags: tuple[str, ...]  # the config-file keys of its own flags, which follow the common ones
    run: Callable[[RunConfig], dict]
    csv_header: str
    csv_lines: Callable[[dict], list[str]]  # a payload's rows


_COMMANDS = {
    "ground-state": _Command("locate the node-free localized solution", (), run_ground_state,
                             "r,u,v,H", lambda payload: _csv_lines_ruvh(payload["profile"])),
    "classify": _Command("classify initial data", ("lambda",), run_classify,
                         "lambda,verdict,node_count,r_event,H_event,min_norm1,certificate_r", _csv_lines_classify),
    "asymptotics": _Command("rescaled convergence and remainder checks", ("epsilon", "T"), run_asymptotics,
                            "epsilon,sup_error,ratio,node_radius,remainder_sup,threshold_ok,bound_limit,bound_ok,"
                            "crosscheck_rel", _csv_lines_asymptotics),
    "portrait": _Command(
        "energy level set and captured trajectories", ("lambda", "level", "resolution"), run_portrait, "piece,u,v",
        lambda payload: [_csv_row(i, u, v) for i, piece in enumerate(payload["level_set"]["pieces"]) for u, v in piece],
    ),
    "verify": _Command(
        "run the full invariant suite", (), run_verify, "check,module,passed,detail",
        lambda payload: [_csv_row(c["name"], c["module"], c["passed"], '"' + c["detail"].replace('"', '""') + '"')
                         for c in payload["checks"]],
    ),
}
# views of the table; main calls each command through _RUNNERS, whose values a tracer may rebind
CSV_HEADERS = {command: row.csv_header for command, row in _COMMANDS.items()}
_RUNNERS = {command: row.run for command, row in _COMMANDS.items()}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # a flag is its full name: a prefix such as --r for --rmax is a usage error
        super().__init__(*args, allow_abbrev=False, **kwargs)
        # a value such as -1e-3 is a number, not a flag; argparse's own pattern has no exponent
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_flag(sp: argparse.ArgumentParser, key: str) -> None:
    name = _CONFIG_FIELDS[key]
    many = _kind(name) == "tuple"  # a repeated flag of floats
    sp.add_argument("--" + key.replace("_", "-"), dest=name, default=None, help=_HELP.get(name),
                    type=float if many else _PARSERS[_kind(name)], action="append" if many else "store",
                    choices=FORMATS if name == "format" else None)


def build_parser() -> _Parser:
    parser = _Parser(prog="diracshoot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    own = {key for row in _COMMANDS.values() for key in row.flags}
    for command, row in _COMMANDS.items():
        sp = sub.add_parser(command, help=row.help)
        for key in [key for key in _CONFIG_FIELDS if key not in own]:
            _add_flag(sp, key)
        sp.add_argument("--config", type=str, default=None, help="key = value config file")
        for key in row.flags:
            _add_flag(sp, key)
    return parser


def make_config(args: argparse.Namespace) -> RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    for name in RunConfig._fields:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = tuple(flag) if isinstance(flag, list) else flag
    return RunConfig(**values)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
        if args.command == "classify" and not cfg.lambdas:
            raise ConfigError("classify needs at least one --lambda")
        if args.command == "asymptotics" and not cfg.epsilons:
            raise ConfigError("asymptotics needs at least one --epsilon")
        # checked before the computation, which the failed write would waste
        if cfg.out is not None and not Path(cfg.out).parent.is_dir():
            raise ConfigError(f"output directory {str(Path(cfg.out).parent)!r} does not exist")
        if cfg.out is not None and Path(cfg.out).is_dir():
            raise ConfigError(f"output path {cfg.out!r} is a directory")
    except (ConfigError, ValueError, OSError) as err:
        print(f"diracshoot: error: {err}", file=sys.stderr)
        return 1

    try:
        envelope = _RUNNERS[args.command](cfg)
    except (shooting.BracketError, shooting.DecayWindowError, NotCapturedError, IntegrationError) as err:
        print(f"diracshoot: computation failed: {err}", file=sys.stderr)
        return 2

    try:
        write_output(envelope, cfg)
        sys.stdout.flush()
    except OSError as err:
        if cfg.out is None:  # the unwritten buffer goes to devnull at the interpreter's final flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"diracshoot: error: output not written: {err}", file=sys.stderr)
        return 1
    if args.command == "verify" and not envelope["payload"]["all_passed"]:
        return 3
    return 0
