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
import dataclasses
import enum
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import asymptotics, phaseflow, shooting, verify as verify_mod
from .integrator import EventKind, IntegrationError
from .params import Params, Tolerances
from .phaseflow import NotCapturedError

SCHEMA_VERSION = "1"

CSV_HEADERS = {
    "ground-state": "r,u,v,H",
    "classify": "lambda,verdict,node_count,r_event,H_event,min_norm1,certificate_r",
    "asymptotics": (
        "epsilon,sup_error,ratio,node_radius,remainder_sup,threshold_ok,"
        "bound_limit,bound_ok,crosscheck_rel"
    ),
    "portrait": "piece,u,v",
    "verify": "check,module,passed,detail",
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    m: float = 1.0
    omega: float = 0.5
    tol_rel: float = 1e-10
    tol_abs: float = 1e-10
    r0: float = 1e-6
    eta: float = 1e-8
    delta: float | None = None
    rmax: float | None = None
    lambdas: tuple[float, ...] = ()
    epsilons: tuple[float, ...] = ()
    lambda_tol: float = 0.0
    T: float = 10.0
    level: float = 0.0
    resolution: int = 512
    format: str = "json"
    out: str | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            values = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(x) for x in values if isinstance(x, float)):
                raise ConfigError(f"{name} must be finite, got {value}")
        # Params and Tolerances hold the checks of their own fields
        try:
            self.params()
            self.tolerances()
        except ValueError as err:
            raise ConfigError(str(err)) from None
        if not self.T > self.r0:
            raise ConfigError(f"T must exceed r0 = {self.r0:g}, got {self.T:g}")
        if self.rmax is not None and not self.rmax > self.r0:
            raise ConfigError(f"rmax must exceed r0 = {self.r0:g}, got {self.rmax:g}")
        if not self.resolution >= 2:
            raise ConfigError(f"resolution must be at least 2, got {self.resolution}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        if not self.lambda_tol >= 0:
            raise ConfigError(f"lambda_tol must be nonnegative, got {self.lambda_tol:g}")
        if not all(lam > 0 and math.isfinite(lam * lam) for lam in self.lambdas):
            raise ConfigError("every lambda must be positive, with a finite square")
        if any(not 0.0 < e < 1.0 for e in self.epsilons):
            raise ConfigError("every epsilon must lie in (0, 1)")

    def params(self) -> Params:
        return Params(self.m, self.omega)

    def tolerances(self) -> Tolerances:
        return Tolerances(
            rel=self.tol_rel,
            abs=self.tol_abs,
            r0=self.r0,
            eta=self.eta,
            delta=self.delta,
            rmax=self.rmax,
        )

    def echo(self) -> dict:
        return _jsonable(dataclasses.asdict(self))


_CONFIG_KEYS = {
    "m": float,
    "omega": float,
    "tol_rel": float,
    "tol_abs": float,
    "r0": float,
    "eta": float,
    "delta": float,
    "rmax": float,
    "lambda": "floats",
    "epsilon": "floats",
    "lambda_tol": float,
    "T": float,
    "level": float,
    "resolution": int,
    "format": str,
    "out": str,
}


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
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _CONFIG_KEYS[key]
        try:
            if kind == "floats":
                parsed = tuple(float(tok) for tok in val.replace(",", " ").split())
            elif kind is str:
                parsed = val
            else:
                parsed = kind(val)
        except ValueError as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}") from None
        target = {"lambda": "lambdas", "epsilon": "epsilons"}.get(key, key)
        values[target] = parsed
    return values


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        if x.ndim == 1 and x.dtype.kind == "f":
            return [None if v != v else v for v in x.tolist()]  # NaN -> None
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, float) and math.isnan(x):
        return None
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return _jsonable(dataclasses.asdict(x))
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
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


# --- commands ----------------------------------------------------------------


def run_ground_state(cfg: RunConfig) -> dict:
    p, tol = cfg.params(), cfg.tolerances()
    gs = shooting.ground_state(p, tol, lambda_tol=cfg.lambda_tol)
    diags = []
    if not gs.converged:
        diags.append("bisection did not reach a node-free connection; best candidate reported")
    payload = {
        "lambda_star": gs.lambda_star,
        "bracket_width": gs.bracket_width,
        "node_count": gs.node_count,
        "decay_slope": gs.decay_slope,
        "converged": gs.converged,
        "anchor_r": gs.anchor_r,
        "closest_approach": gs.closest_approach,
        "profile": {
            "r": gs.profile.r,
            "u": gs.profile.u,
            "v": gs.profile.v,
            "H": gs.profile.H,
        },
    }
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
                "r_event": c.evidence.get("r"),
                "H_event": c.evidence.get("H"),
                "certificate": c.certificate,
                "summary": c.summary,
                "v_sign_changes": [
                    e.r for e in (c.trajectory.events if c.trajectory else [])
                    if e.kind == EventKind.V_SIGN_CHANGE
                ],
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
    records = [asymptotics.integrate_remainder(e, p, tol) for e in eps_sorted]
    study = asymptotics.convergence_study(records, cfg.T, p, tol)
    fit = asymptotics.first_order_log_fit(p, tol)
    bound_c = asymptotics.remainder_bound_constant(p)
    remainders = []
    for rec in records:
        limit = bound_c * math.log(1.0 / rec.epsilon) / rec.epsilon
        ok = rec.sup_norm <= limit
        if not ok:
            diags.append(
                f"remainder bound exceeded at eps={rec.epsilon:g}: "
                f"sup={rec.sup_norm:.6g} > {limit:.6g}"
            )
        if not rec.threshold_ok:
            diags.append(f"remainder threshold eps^-3/2 breached at eps={rec.epsilon:g}")
        if rec.rel_discrepancy >= asymptotics.CROSSCHECK_REL_BOUND:
            diags.append(
                f"crosscheck unresolved at eps={rec.epsilon:g}: "
                f"rel {rec.rel_discrepancy:.2e} >= {asymptotics.CROSSCHECK_REL_BOUND:.0e}"
            )
        remainders.append(
            {
                "epsilon": rec.epsilon,
                "sup_norm": rec.sup_norm,
                "threshold": rec.threshold,
                "threshold_ok": rec.threshold_ok,
                "breach_r": rec.breach_r,
                "max_discrepancy": rec.max_discrepancy,
                "crosscheck_rel": rec.rel_discrepancy,
                "bound_limit": limit,
                "bound_ok": ok,
            }
        )
    payload = {"study": study, "log_fit": fit, "bound_constant": bound_c, "remainders": remainders}
    return _envelope("asymptotics", cfg, payload, diags)


def run_portrait(cfg: RunConfig) -> dict:
    p, tol = cfg.params(), cfg.tolerances()
    ls = phaseflow.level_set(cfg.level, p, resolution=cfg.resolution)
    trajectories = []
    for lam in cfg.lambdas:
        rep = phaseflow.attraction_report(lam, p, tol)
        t = rep.trajectory
        trajectories.append(
            {
                "lambda": lam,
                "entered_at": rep.entered_at,
                "terminal_distance": rep.terminal_distance,
                "nearest_equilibrium": rep.nearest_equilibrium,
                "u_sign_alternations": rep.u_sign_alternations,
                "r": t.r,
                "u": t.u,
                "v": t.v,
                "H": t.H,
            }
        )
    payload = {
        "level": cfg.level,
        "level_set": {"pieces": [piece for piece in ls.pieces]},
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
            out.append(("," if i else "{") + "\n" + inner + json.dumps(k) + ": ")
            _emit(x[k], inner, out)
        out.append("\n" + pad + "}")
    elif isinstance(x, (list, tuple)) and x:
        for i, v in enumerate(x):
            out.append(("," if i else "[") + "\n" + inner)
            _emit(v, inner, out)
        out.append("\n" + pad + "]")
    else:
        out.append(json.dumps(x))  # a scalar, {} or []


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


def _csv_lines_portrait(payload) -> list[str]:
    pieces = payload["level_set"]["pieces"]
    return [_csv_row(i, u, v) for i, piece in enumerate(pieces) for u, v in piece]


def _csv_lines_verify(payload) -> list[str]:
    return [
        _csv_row(c["name"], c["module"], c["passed"], '"' + c["detail"] + '"')
        for c in payload["checks"]
    ]


_CSV_BUILDERS = {
    "ground-state": lambda payload: _csv_lines_ruvh(payload["profile"]),
    "classify": _csv_lines_classify,
    "asymptotics": _csv_lines_asymptotics,
    "portrait": _csv_lines_portrait,
    "verify": _csv_lines_verify,
}


def render_csv(envelope: dict) -> str:
    command = envelope["command"]
    return _csv_text(CSV_HEADERS[command], _CSV_BUILDERS[command](envelope["payload"]))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def write_output(envelope: dict, cfg: RunConfig) -> None:
    if cfg.format == "json":
        _write_text(cfg.out, render_json(envelope))
        return
    _write_text(cfg.out, render_csv(envelope))
    if envelope["command"] == "portrait" and cfg.out is not None:
        base = Path(cfg.out)
        for i, tr in enumerate(envelope["payload"]["trajectories"]):
            text = _csv_text(CSV_HEADERS["ground-state"], _csv_lines_ruvh(tr))
            _write_text(str(base.with_suffix(base.suffix + f".traj{i}.csv")), text)


# --- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--m", type=float, default=None, help="mass parameter (default 1.0)")
    sp.add_argument("--omega", type=float, default=None, help="frequency, 0 < omega < m")
    sp.add_argument("--tol-rel", type=float, default=None, dest="tol_rel")
    sp.add_argument("--tol-abs", type=float, default=None, dest="tol_abs")
    sp.add_argument("--r0", type=float, default=None, help="series start radius")
    sp.add_argument("--eta", type=float, default=None, help="origin-capture threshold")
    sp.add_argument("--delta", type=float, default=None, help="negative-energy threshold")
    sp.add_argument("--rmax", type=float, default=None, help="integration horizon")
    sp.add_argument("--format", choices=("json", "csv"), default=None)
    sp.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    sp.add_argument("--config", type=str, default=None, help="key = value config file")


def build_parser() -> _Parser:
    parser = _Parser(prog="diracshoot", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ground-state", help="locate the node-free localized solution")
    _add_common(sp)
    sp.add_argument(
        "--lambda-tol",
        type=float,
        default=None,
        dest="lambda_tol",
        help="stop once the lambda* bracket is this narrow (default 0: the "
        "width 0.1 * rel * lambda* that the tolerance supports)",
    )

    sp = sub.add_parser("classify", help="classify initial data")
    _add_common(sp)
    sp.add_argument("--lambda", type=float, action="append", dest="lambdas", default=None)

    sp = sub.add_parser("asymptotics", help="rescaled convergence and remainder checks")
    _add_common(sp)
    sp.add_argument("--epsilon", type=float, action="append", dest="epsilons", default=None)
    sp.add_argument("--T", type=float, default=None, help="comparison horizon (default 10)")

    sp = sub.add_parser("portrait", help="energy level set and captured trajectories")
    _add_common(sp)
    sp.add_argument("--lambda", type=float, action="append", dest="lambdas", default=None)
    sp.add_argument("--level", type=float, default=None)
    sp.add_argument("--resolution", type=int, default=None)

    sp = sub.add_parser("verify", help="run the full invariant suite")
    _add_common(sp)
    return parser


def make_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for f in dataclasses.fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = tuple(flag) if isinstance(flag, list) else flag
    return RunConfig(**values)


_RUNNERS = {
    "ground-state": run_ground_state,
    "classify": run_classify,
    "asymptotics": run_asymptotics,
    "portrait": run_portrait,
    "verify": run_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
        if args.command == "classify" and not cfg.lambdas:
            raise ConfigError("classify needs at least one --lambda")
        if args.command == "asymptotics" and not cfg.epsilons:
            raise ConfigError("asymptotics needs at least one --epsilon")
    except (ConfigError, ValueError, OSError) as err:
        print(f"diracshoot: error: {err}", file=sys.stderr)
        return 1

    try:
        envelope = _RUNNERS[args.command](cfg)
    except (shooting.BracketError, shooting.DecayWindowError, NotCapturedError, IntegrationError) as err:
        print(f"diracshoot: computation failed: {err}", file=sys.stderr)
        return 2

    write_output(envelope, cfg)
    if args.command == "verify" and not envelope["payload"]["all_passed"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
