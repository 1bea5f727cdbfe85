"""Config-driven CLI for the simulation and characterization experiments.

Subcommands mirror the experiment set: simulate (concurrence traces), spectrum
(DFT of the traces), characterize (full coupling reconstruction), gate-error
(budget curves and threshold solving), robustness (imperfect-preparation sweep).
All artifacts are CSV/JSON, carry a hash of the resolved config, and are byte
reproducible for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .concest import CHANNEL_FOR_INPUT, ConcurrenceSeries, first_bad_point
from .gateerr import GATE_ISING_CNOT, GATES, MAX_NE, budget_curve, measurements_for_threshold
from .measure import CHANNELS, prepare_input
from .qcore import (
    INPUT_IDS,
    PSI1,
    HamiltonianParams,
    concurrence_sq_exact,
    evolve_batch,
    imperfect_prep_concurrence_sq,
    sideband_frequencies,
)
from .recon import (
    MAX_COUPLING,
    MODES,
    SIGN_CONVENTION,
    SIGN_PATTERNS,
    InconsistentFrequencyError,
    characterize,
    planning_guesses,
    simulate_series,
)
from .spectral import (
    STRATEGIES,
    SamplingPlan,
    cosine_amplitudes,
    dft,
    find_peak,
    plan_observation,
)

DEFAULT_NT = 200
DEFAULT_NE = 10
DEFAULT_OUT = "runs/run"
# Largest nt: characterize peaks near 0.62 kB of traced memory per time point
# (default plans, ne = 10, sampled; the float32 rate screen of one line, screened
# alone, holds the peak), about 0.65 GB at 2**20 points.  ne is bounded by gateerr.MAX_NE.
MAX_NT = 2**20
# Most log-spaced budgets one gate-error sweep may ask for.
MAX_NE_COUNT = 2**16
SEED_ENV_VAR = "ENTMAP_SEED"
COUPLINGS = ("c1", "c2", "c3")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCONSISTENT = 3
EXIT_IO = 4


class ConfigError(Exception):
    """Invalid configuration; the message names the offending key."""


def _fmt(x: float) -> str:
    """17 significant digits round-trips any double exactly."""
    return format(float(x), ".17g")


def _eta_tag(eta: float) -> str:
    """File-name tag of one robustness eta."""
    return f"eta{eta:g}"


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config: the canonical payload that config_hash covers (the
    physics and seeding, keyed as in CONFIG_KEYS) and the output directory,
    which stays out of the hash."""

    payload: dict
    out: Path

    @property
    def config_hash(self) -> str:
        return _payload_hash(self.payload)

    @property
    def hamiltonian(self) -> HamiltonianParams:
        return HamiltonianParams(**self.payload["hamiltonian"])


def _payload_hash(payload: dict) -> str:
    """SHA-256 of the payload written as compact JSON with sorted keys."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _get_number(raw: dict, key: str, path: str, default=None):
    if key not in raw:
        _expect(default is not None, f"{path}.{key}", "required key is missing")
        return default
    value = raw[key]
    # Comparing against the largest float rejects inf, nan, and integers too
    # large to convert, without converting them.
    _expect(
        isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max,
        f"{path}.{key}",
        f"expected a finite number, got {value!r}",
    )
    return value


def _get_int(raw: dict, key: str, path: str, default=None, minimum=-math.inf, maximum=math.inf):
    value = _get_number(raw, key, path, default)
    _expect(float(value).is_integer(), f"{path}.{key}", f"expected an integer, got {value!r}")
    value = int(value)
    _expect(minimum <= value <= maximum, f"{path}.{key}", f"must lie in [{minimum}, {maximum}], got {value}")
    return value


def _choice(value, path: str, choices) -> str:
    _expect(value in choices, path, f"must be {' or '.join(choices)}, got {value!r}")
    return value


def _object(raw, path: str, keys, missing: str = "must be an object", unknown: str = "unknown key") -> dict:
    """raw, checked to be an object that sets only the given keys."""
    _expect(isinstance(raw, dict), path, missing)
    for key in raw:
        _expect(key in keys, f"{path}.{key}", unknown)
    return raw


def _plan_entry(raw, path: str, nt: int, ne: int, strategy: str | None = None) -> dict:
    """Validated {nt, ne[, strategy][, dt]} of one plan-shaped object; missing keys take the given defaults.

    The keys it may set are those CONFIG_KEYS gives the top-level key its path starts with.
    """
    _object(raw, path, CONFIG_KEYS[path.split(".")[0]])
    entry = {
        "nt": _get_int(raw, "nt", path, default=nt, minimum=4, maximum=MAX_NT),
        "ne": _get_int(raw, "ne", path, default=ne, minimum=1, maximum=MAX_NE),
    }
    if strategy is not None:
        entry["strategy"] = _choice(raw.get("strategy", strategy), f"{path}.strategy", STRATEGIES)
    if "dt" in raw:
        dt = _get_number(raw, "dt", path)
        _expect(dt > 0, f"{path}.dt", f"must be positive, got {dt!r}")
        entry["dt"] = float(dt)
    return entry


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # past Python's integer-digit or nesting limit
        raise ConfigError(f"{path}: {exc}") from exc
    _expect(isinstance(raw, dict), path, "top level must be a JSON object")
    return raw


# Every key a config may set; an object's entry names the keys it may set
# (for "plans", the keys of each per-input override).
CONFIG_KEYS = {
    "hamiltonian": COUPLINGS,
    "plan": ("nt", "ne", "strategy"),
    "plans": ("nt", "ne", "dt", "strategy"),
    "eta": None,
    "seed": None,
    "mode": None,
    "out": None,
    "robustness": ("etas", "nt", "ne"),
}


def resolve_config(raw: dict, args=None) -> ExperimentConfig:
    """Validate the raw config into its canonical payload and fold in CLI/env overrides.

    Seed priority: ENTMAP_SEED env var, then --seed, then the config file.
    """
    for key in raw:
        _expect(key in CONFIG_KEYS, key, f"unknown config key (known: {sorted(CONFIG_KEYS)})")
    ham = _object(raw.get("hamiltonian"), "hamiltonian", COUPLINGS, "required object {c1, c2, c3} is missing")
    couplings = {}
    for key in COUPLINGS:
        couplings[key] = value = float(_get_number(ham, key, "hamiltonian"))
        bound = f"magnitude must be <= {MAX_COUPLING:g} so the uncertainty propagation stays finite"
        _expect(abs(value) <= MAX_COUPLING, f"hamiltonian.{key}", f"{bound}, got {value!r}")
    plan = _plan_entry(raw.get("plan", {}), "plan", DEFAULT_NT, DEFAULT_NE, "uniform")
    unknown_id = f"unknown input id (known: {list(INPUT_IDS)})"
    overrides = _object(
        raw.get("plans", {}), "plans", INPUT_IDS, "must be an object keyed by input id", unknown_id
    )
    payload = {
        "hamiltonian": couplings,
        "plan": plan,
        "plans": {
            input_id: _plan_entry(entry, f"plans.{input_id}", **plan)
            for input_id, entry in overrides.items()
        },
        "eta": float(_get_number(raw, "eta", "config", default=0.0)),
    }
    _expect(0.0 <= payload["eta"] < 1.0, "eta", f"must lie in [0, 1), got {payload['eta']!r}")

    given = {flag: value for flag, value in vars(args).items() if value is not None} if args else {}
    seed = given.get("seed", _get_int(raw, "seed", "config", default=0))
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR}: expected an integer, got {env_seed!r}") from None
    _expect(0 <= seed < 2**64, "seed", f"must fit in 64 bits, got {seed}")
    payload["seed"] = seed
    payload["mode"] = _choice(raw.get("mode", "sampled"), "mode", MODES)
    out = given.get("out", raw.get("out", DEFAULT_OUT))
    _expect(isinstance(out, str) and out, "out", "must be a nonempty path string")

    rob_raw = raw.get("robustness", {})
    payload["robustness"] = rob = _plan_entry(rob_raw, "robustness", plan["nt"], plan["ne"])
    etas = rob_raw.get("etas", [0.0, 0.05])
    _expect(isinstance(etas, list) and len(etas) > 0, "robustness.etas", "must be a nonempty list")
    rob["etas"] = []
    for i, value in enumerate(etas):
        place = f"robustness.etas[{i}]"
        is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
        _expect(is_number and 0.0 <= value <= 0.2, place, f"must lie in [0, 0.2], got {value!r}")
        tag = _eta_tag(float(value))
        shared = f"{value!r} shares the file tag {tag!r} with an earlier eta"
        _expect(tag not in map(_eta_tag, rob["etas"]), place, shared)
        rob["etas"].append(float(value))
    return ExperimentConfig(payload, Path(out))


def build_plans(cfg: ExperimentConfig, entries: dict | None = None) -> dict[str, SamplingPlan]:
    """One plan per {nt, ne, strategy[, dt]} entry, keyed by input id.

    By default every input gets its plans.<id> override or else the shared
    plan.  An entry without dt is planned around its input's guess from the
    couplings.  A plan SamplingPlan rejects, like couplings with nothing to
    observe, is a config error naming plans.<id> if that entry sets dt, else hamiltonian.
    """
    if entries is None:
        entries = {input_id: cfg.payload["plans"].get(input_id, cfg.payload["plan"]) for input_id in INPUT_IDS}
    plans, place = {}, "hamiltonian"
    try:
        guesses = planning_guesses(cfg.hamiltonian)
        for input_id, e in entries.items():
            place = f"plans.{input_id}" if "dt" in e else "hamiltonian"
            plans[input_id] = (
                SamplingPlan(e["nt"], e["dt"], e["strategy"], e["ne"])
                if "dt" in e
                else plan_observation(guesses[input_id], e["nt"], e["ne"], e["strategy"])
            )
    except ValueError as exc:
        raise ConfigError(f"{place}: {exc}") from exc
    return plans


def _robustness_plan(cfg: ExperimentConfig) -> SamplingPlan:
    """psi1's plan for the robustness sweep: the shared plan at the robustness nt and ne."""
    rob = cfg.payload["robustness"]
    return build_plans(cfg, {PSI1: {**cfg.payload["plan"], "nt": rob["nt"], "ne": rob["ne"]}})[PSI1]


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_manifest(cfg: ExperimentConfig, command: str, files: list[str]) -> None:
    """Write manifest.json, then report every artifact the command wrote."""
    manifest = {
        "command": command,
        "config": cfg.payload,
        "config_hash": cfg.config_hash,
        "files": sorted(files),
        "seed": cfg.payload["seed"],
        "versions": {
            "entmap": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": scipy.__version__,
        },
    }
    _write_json(cfg.out / "manifest.json", manifest)
    for name in files:
        print(f"wrote {cfg.out / name}")


def _write_csv(path: Path, config_hash: str, header: str, columns) -> None:
    """Write one CSV artifact: the config_hash line, the column header, then the rows of the columns.

    A column of integers is written as it is, any other column as _fmt writes it ("%.17g").
    """
    cells = [column.tolist() if isinstance(column, np.ndarray) else list(column) for column in columns]
    template = ",".join("%d" if isinstance(column[0], int) else "%.17g" for column in cells)
    lines = [f"# config_hash={config_hash}", header, *(template % row for row in zip(*cells))]
    _write_text(path, "\n".join(lines) + "\n")


SERIES_HEADER = "t,c2_estimate," + ",".join(f"shots_{channel}" for channel in CHANNELS)


def _read_series_csv(path: Path, expected_hash: str, input_id: str) -> ConcurrenceSeries:
    """Parse one series_*.csv, taking shots from the input's channel column (the others must be 0).

    A malformed line, or the first point ConcurrenceSeries rejects, is a ConfigError naming path:line.
    """
    if not path.exists():
        raise FileNotFoundError(f"{path}: series file missing; run simulate first")
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not lines or not lines[0].startswith("# config_hash="):
        raise ConfigError(f"{path}: missing config_hash header line")
    found = lines[0].split("=", 1)[1]
    if found != expected_hash:
        raise ConfigError(
            f"{path}: config_hash {found[:12]}... does not match current config {expected_hash[:12]}..."
        )
    if len(lines) < 2 or lines[1] != SERIES_HEADER:
        raise ConfigError(f"{path}:2: expected the column header {SERIES_HEADER!r}")
    channel = CHANNEL_FOR_INPUT[input_id]
    own, width = CHANNELS.index(channel), 2 + len(CHANNELS)
    rows = []
    for lineno, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise ConfigError(f"{path}:{lineno}: expected {width} comma-separated fields, got {len(fields)}")
        try:
            t, c2, counts = float(fields[0]), float(fields[1]), list(map(int, fields[2:]))
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: expected {SERIES_HEADER} as numbers, got {line!r}") from None
        if any(counts[:own] + counts[own + 1 :]):
            raise ConfigError(f"{path}:{lineno}: {input_id} reads shots_{channel}; the others must be 0")
        rows.append((lineno, t, c2, counts[own]))
    linenos, times, values, shots = zip(*rows) if rows else ((),) * 4
    times, values = np.array(times, dtype=float), np.array(values, dtype=float)
    shots = np.array(shots, dtype=np.int64)
    try:
        return ConcurrenceSeries(times, values, shots, channel)
    except ValueError as exc:
        fault = first_bad_point(times, values, shots) if rows else None
        raise ConfigError(f"{path}:{linenos[fault[0]]}: {fault[1]}" if fault else f"{path}: {exc}") from None


def cmd_simulate(cfg: ExperimentConfig, plans: dict[str, SamplingPlan]) -> None:
    p = cfg.payload
    files = []
    for input_id, plan in plans.items():
        series = simulate_series(cfg.hamiltonian, input_id, plan, p["seed"], eta=p["eta"], mode=p["mode"])
        name = f"series_{input_id}.csv"
        shots = np.zeros((len(CHANNELS), plan.nt), dtype=np.int64)
        shots[CHANNELS.index(series.channel)] = series.shots
        _write_csv(cfg.out / name, cfg.config_hash, SERIES_HEADER, (series.times, series.values, *shots))
        files.append(name)
    _write_manifest(cfg, "simulate", files)


def cmd_spectrum(cfg: ExperimentConfig) -> None:
    files = []
    peaks: dict[str, dict] = {}
    for input_id in INPUT_IDS:
        series = _read_series_csv(cfg.out / f"series_{input_id}.csv", cfg.config_hash, input_id)
        omegas, magnitudes = dft(series.values, series.dt)
        name = f"spectrum_{input_id}.csv"
        _write_csv(cfg.out / name, cfg.config_hash, "omega,magnitude", (omegas, magnitudes))
        files.append(name)
        k = find_peak(magnitudes)
        peaks[input_id] = {"no_oscillation": k is None}
        if k is not None:
            peaks[input_id].update(bin_index=k, omega=float(omegas[k]), magnitude=float(magnitudes[k]))
    peaks["config_hash"] = cfg.config_hash
    _write_json(cfg.out / "peaks.json", peaks)
    files.append("peaks.json")
    _write_manifest(cfg, "spectrum", files)


def cmd_characterize(cfg: ExperimentConfig, plans: dict[str, SamplingPlan]) -> None:
    p = cfg.payload
    report = characterize(cfg.hamiltonian, plans, p["seed"], eta=p["eta"], mode=p["mode"])
    frequencies = {}
    for i, input_id in enumerate(INPUT_IDS):
        entry = {
            "degenerate": report.degenerate[input_id],
            "sigma": report.quad.sigmas[i],
            "value": report.quad.values[i],
        }
        est = report.estimates.get(input_id)
        if est is not None:
            entry.update(delta_f_over_f=est.delta_f_over_f, raw_peak_omega=est.raw_peak_omega)
        frequencies[input_id] = entry
    c_hat = report.result.c_hat.as_tuple()
    summary = {
        "c_hat": dict(zip(COUPLINGS, c_hat)),
        "candidates_considered": len(SIGN_PATTERNS),
        "config_hash": cfg.config_hash,
        "convention": SIGN_CONVENTION,
        "eta": p["eta"],
        "frequencies": frequencies,
        "mode": p["mode"],
        "residual": report.result.residual,
        "seed": p["seed"],
        "sigma": dict(zip(COUPLINGS, report.result.sigma)),
    }
    _write_json(cfg.out / "summary.json", summary)
    print("c_hat = ({}, {}, {})".format(*map(_fmt, c_hat)))
    _write_manifest(cfg, "characterize", ["summary.json"])


def cmd_gate_error(args) -> None:
    nts = sorted(set(args.nt or [10, 100]))
    for nt in nts:
        _expect(4 <= nt <= MAX_NT, "--nt", f"must lie in [4, {MAX_NT}], got {nt}")
    ne_min, ne_max, ne_count = args.ne_range
    _expect(
        1 <= ne_min <= ne_max <= MAX_NE and 1 <= ne_count <= MAX_NE_COUNT,
        "--ne-range",
        f"need 1 <= MIN <= MAX <= {MAX_NE} and 1 <= COUNT <= {MAX_NE_COUNT}, got {ne_min} {ne_max} {ne_count}",
    )
    p_target = args.p_target
    _expect(p_target is None or 0.0 < p_target <= 1.0, "--p-target", f"must lie in (0, 1], got {p_target}")
    # Rounding a float near MAX can step past it, so every budget is clamped to [MIN, MAX].
    ne_values = sorted({min(max(round(v), ne_min), ne_max) for v in np.geomspace(ne_min, ne_max, ne_count)})

    out = Path(args.out)
    payload = {"gate": args.gate, "ne_values": ne_values, "nt": nts, "p_target": p_target}
    config_hash = _payload_hash(payload)

    # Thresholds are solved before any file is written: one may need more than MAX_NE.
    minimal = {}
    if p_target is not None:
        try:
            minimal = {nt: measurements_for_threshold(p_target, nt, args.gate) for nt in nts}
        except ValueError as exc:
            raise ConfigError(f"--p-target: {exc}") from None

    files = []
    for nt in nts:
        reports = budget_curve(nt, ne_values, gate=args.gate)
        name = f"gate_error_nt{nt}.csv"
        rows = [(r.total_measurements, r.epsilon, r.p_eff) for r in reports]
        _write_csv(out / name, config_hash, "n_total,epsilon,p_eff", zip(*rows))
        files.append(name)

    if p_target is not None:
        threshold = {}
        for nt, r in minimal.items():
            threshold[str(nt)] = {
                "epsilon": r.epsilon,
                "n_total": r.total_measurements,
                "ne": r.ne,
                "p_eff": r.p_eff,
            }
            print(
                f"threshold p_eff <= {_fmt(p_target)} at nt={nt} ({args.gate}): "
                f"Ne = {r.ne}, N = {r.total_measurements}"
            )
        threshold["config_hash"] = config_hash
        threshold["gate"] = args.gate
        threshold["p_target"] = p_target
        _write_json(out / "threshold.json", threshold)
        files.append("threshold.json")

    for name in files:
        print(f"wrote {out / name}")


def cmd_robustness(cfg: ExperimentConfig, plan: SamplingPlan) -> None:
    """Sweep preparation error and track what it does to the first input's line.

    The swept quantity is the exact squared concurrence of the contaminated
    input as it evolves.  The single-channel estimator is blind to the
    interference between the intended and contaminant components, and the
    two-channel phase convention only holds for clean inputs, so a sampled
    trace cannot expose the spurious lines; the exact curve is what the
    first-order expansion approximates and is computed regardless of mode.
    """
    h = cfg.hamiltonian
    times = plan.times()
    # The main line w1m2 comes first, as main_amp; its five sidebands follow.
    sidebands = sideband_frequencies(h)
    labels = list(sidebands)[1:]
    files = []
    rows = []
    for eta in cfg.payload["robustness"]["etas"]:
        exact = concurrence_sq_exact(evolve_batch(h, prepare_input(PSI1, eta), times))
        omegas, magnitudes = dft(exact, plan.dt)
        tag = _eta_tag(eta)

        name = f"robustness_spectrum_{tag}.csv"
        _write_csv(cfg.out / name, cfg.config_hash, "omega,magnitude", (omegas, magnitudes))
        files.append(name)

        expansion = imperfect_prep_concurrence_sq(h, eta, times)
        name = f"robustness_curve_{tag}.csv"
        _write_csv(cfg.out / name, cfg.config_hash, "t,c2_exact,c2_first_order", (times, exact, expansion))
        files.append(name)

        k = find_peak(magnitudes)
        peak_omega = 0.0 if k is None else omegas[k]
        amps = cosine_amplitudes(times, exact, sidebands)
        rows.append([eta, peak_omega, *amps.values()])

    name = "robustness.csv"
    header = "eta,main_peak_omega,main_amp," + ",".join(f"amp_{label}" for label in labels)
    _write_csv(cfg.out / name, cfg.config_hash, header, np.array(rows, dtype=float).T)
    files.append(name)
    _write_manifest(cfg, "robustness", files)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entmap",
        description="Simulate and characterize anisotropic two-qubit Heisenberg couplings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command in ("simulate", "spectrum", "characterize", "robustness"):
        p = sub.add_parser(command)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")

    p = sub.add_parser("gate-error")
    p.add_argument("--out", default="runs/gate-error", help="output directory")
    p.add_argument(
        "--nt",
        type=int,
        action="append",
        default=None,
        help="time-grid size; repeat the flag for several curves (default: 10 and 100)",
    )
    p.add_argument(
        "--ne-range",
        nargs=3,
        type=int,
        metavar=("MIN", "MAX", "COUNT"),
        default=(1, 8192, 27),
        help="log-spaced endpoint budgets",
    )
    p.add_argument("--gate", choices=GATES, default=GATE_ISING_CNOT)
    p.add_argument("--p-target", type=float, default=None, help="solve for the minimal budget")
    return parser


def _dispatch(args) -> int:
    if args.command == "gate-error":
        cmd_gate_error(args)
        return EXIT_OK
    cfg = resolve_config(load_config(args.config), args)
    # Every grid the config describes must fit in float64, whichever command runs: plan each once, here.
    plans, robustness_plan = build_plans(cfg), _robustness_plan(cfg)
    commands = {
        "simulate": functools.partial(cmd_simulate, cfg, plans),
        "spectrum": functools.partial(cmd_spectrum, cfg),
        "characterize": functools.partial(cmd_characterize, cfg, plans),
        "robustness": functools.partial(cmd_robustness, cfg, robustness_plan),
    }
    commands[args.command]()
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InconsistentFrequencyError as exc:
        print(f"inconsistent frequencies: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
