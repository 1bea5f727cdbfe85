"""The benchmark's workloads: seeded inputs, one unit of user work, and its output check.

Each workload builds the inputs of run ``k`` from ``(seed, k)`` alone, so the
same seed always gives the same inputs and the library receives only the
generated values.  ACCURACY_RUNS is the number of leading inputs the accuracy
metrics are taken over.  Calls into entmap go through module attributes
(``self.recon.characterize``), never through names bound at import time, so
the traced run sees every call at the name the caller looks up.

This module imports no part of entmap itself: the worker imports entmap first
and times it, and a workload binds the modules when it is created.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The reference couplings of the paper's desk-scale experiment.
H_REF = (1.2, 0.6, 1.4)
# Signed combinations (c1-c2, c1+c2, c2-c3, c2+c3) measured by psi1..psi4.
COMBINATIONS = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 1.0, 1.0]])


@dataclass(frozen=True)
class Outcome:
    """What the output check of one run found.

    miss_sigmas is the largest miss from the truth in quoted sigmas; ratios holds
    |w_hat - w| / w divided by the quoted resolution 4/(nt*sqrt(ne)) for each
    estimated combination; digest identifies the run's outputs exactly, so a
    traced run can be compared with an untraced one.
    """

    ok: bool
    miss_sigmas: float = math.inf
    ratios: tuple[float, ...] = ()
    digest: str = ""
    files: int = 0
    nbytes: int = 0
    note: str = ""


def _digest(*values) -> str:
    text = repr(tuple(float(v).hex() if isinstance(v, float) else v for v in values))
    return hashlib.sha256(text.encode()).hexdigest()


def _resolution(nt: int, ne: int) -> float:
    return 4.0 / (nt * math.sqrt(ne))


def _jittered_couplings(rng: np.random.Generator) -> tuple[float, float, float]:
    # +/-10% keeps the four combinations distinct, nonzero and inside the planning margin.
    jitter = rng.uniform(-0.1, 0.1, size=3)
    return tuple(float(c * (1.0 + j)) for c, j in zip(H_REF, jitter))


def _point_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


@dataclass
class DeskInput:
    truth: tuple[float, float, float]
    plans: dict
    point_seed: int


class DeskCharacterize:
    """One run is one ``recon.characterize`` call on jittered reference couplings, sampled."""

    name = "desk_characterize"
    NE = 10
    ACCURACY_RUNS = 100

    def __init__(self, nt: int = 200):
        self.nt = nt
        self.qcore = importlib.import_module("entmap.qcore")
        self.recon = importlib.import_module("entmap.recon")

    def prepare(self, seed: int, workdir: Path) -> None:
        pass

    def close(self) -> None:
        pass

    def inputs(self, seed: int, k: int) -> DeskInput:
        rng = np.random.default_rng([seed, k, 1])
        truth = _jittered_couplings(rng)
        h = self.qcore.HamiltonianParams(*truth)
        plans = self.recon.default_plans(h, self.nt, self.NE, "uniform")
        return DeskInput(truth, plans, _point_seed(rng))

    def run(self, inp: DeskInput):
        h = self.qcore.HamiltonianParams(*inp.truth)
        return self.recon.characterize(h, inp.plans, inp.point_seed, mode="sampled")

    def check(self, inp: DeskInput, report) -> Outcome:
        c_hat = np.array(report.result.c_hat.as_tuple())
        sigma = np.array(report.result.sigma)
        miss = np.abs(c_hat - np.array(inp.truth))
        w_true = np.abs(COMBINATIONS @ np.array(inp.truth))
        w_hat = np.array(report.quad.values)
        ratios = tuple(np.abs(w_hat - w_true) / w_true / _resolution(self.nt, self.NE))
        finite = bool(np.all(np.isfinite(c_hat)) and np.all(np.isfinite(sigma)))
        degenerate = any(report.degenerate.values())
        ok = finite and not degenerate and bool(np.all(miss <= 5.0 * sigma))
        note = "" if ok else f"c_hat {c_hat.tolist()} vs truth {list(inp.truth)}, sigma {sigma.tolist()}"
        return Outcome(
            ok=ok,
            miss_sigmas=float(np.max(miss / sigma)),
            ratios=tuple(float(r) for r in ratios),
            digest=_digest(*c_hat.tolist(), *sigma.tolist(), *w_hat.tolist()),
            note=note,
        )


@dataclass
class EndpointInput:
    guess: float
    ne: int
    point_seed: int


class EndpointSweep:
    """One run is plan_observation -> simulate_series -> estimate_combination for psi1."""

    name = "endpoint_sweep"
    ACCURACY_RUNS = 200  # forty of each ne
    W_TRUE = 0.6  # |c1 - c2| of the reference couplings, the slowest line

    def __init__(self, nt: int = 400, ne_cycle: tuple[int, ...] = (4, 16, 64, 256, 1024)):
        self.nt, self.ne_cycle = nt, ne_cycle
        self.qcore = importlib.import_module("entmap.qcore")
        self.recon = importlib.import_module("entmap.recon")
        self.spectral = importlib.import_module("entmap.spectral")
        self.h = self.qcore.HamiltonianParams(*H_REF)

    def prepare(self, seed: int, workdir: Path) -> None:
        pass

    def close(self) -> None:
        pass

    def inputs(self, seed: int, k: int) -> EndpointInput:
        rng = np.random.default_rng([seed, k, 2])
        # A conservative 3.5x guess keeps the endpoints off oscillation nodes.
        guess = 3.5 * self.W_TRUE * (1.0 + float(rng.uniform(-0.05, 0.05)))
        return EndpointInput(guess, self.ne_cycle[k % len(self.ne_cycle)], _point_seed(rng))

    def run(self, inp: EndpointInput):
        plan = self.spectral.plan_observation(inp.guess, self.nt, inp.ne, "endpoint")
        series = self.recon.simulate_series(self.h, self.qcore.PSI1, plan, inp.point_seed)
        value, sigma, _, degenerate = self.recon.estimate_combination(series, plan)
        return plan.bin_width, value, sigma, degenerate

    def check(self, inp: EndpointInput, out) -> Outcome:
        bin_width, value, sigma, degenerate = out
        miss = abs(value - self.W_TRUE)
        # One DFT bin of the raw line at 4w is bin_width/4 in the combination itself.
        ok = math.isfinite(value) and math.isfinite(sigma) and not degenerate and miss <= bin_width / 4.0
        return Outcome(
            ok=ok,
            miss_sigmas=miss / sigma,
            ratios=(miss / self.W_TRUE / _resolution(self.nt, inp.ne),),
            digest=_digest(value, sigma, bool(degenerate)),
            note="" if ok else f"estimate {value!r} (sigma {sigma!r}, degenerate {degenerate})",
        )


class CliNoiseless:
    """One run is one pass of ``entmap.runner.main`` over all five subcommands, noiseless.

    simulate and spectrum share an output directory because spectrum reads the
    series CSVs back; the other subcommands get their own, so every manifest
    survives and is checked.
    """

    name = "cli_noiseless"
    NE = 10
    ACCURACY_RUNS = 10  # every pass is checked byte-identical to the first

    def __init__(self, nt: int = 100, robustness_nt: int = 200):
        self.nt, self.robustness_nt = nt, robustness_nt
        self.runner = importlib.import_module("entmap.runner")
        self.workdir: Path | None = None
        self.reference_sha: str | None = None
        self.sink = io.StringIO()

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 0, 3])
        self.truth = _jittered_couplings(rng)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        config = {
            "hamiltonian": dict(zip(("c1", "c2", "c3"), self.truth)),
            "plan": {"nt": self.nt, "ne": self.NE, "strategy": "uniform"},
            "mode": "noiseless",
            "seed": int(seed),
            "robustness": {"etas": [0.0, 0.05], "nt": self.robustness_nt},
        }
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(config, sort_keys=True))

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def inputs(self, seed: int, k: int) -> Path:
        return self.workdir / f"pass{k}"

    def run(self, pass_dir: Path) -> list[int]:
        cfg = str(self.config_path)
        commands = [
            ["simulate", "--config", cfg, "--out", str(pass_dir / "sim")],
            ["spectrum", "--config", cfg, "--out", str(pass_dir / "sim")],
            ["characterize", "--config", cfg, "--out", str(pass_dir / "char")],
            ["robustness", "--config", cfg, "--out", str(pass_dir / "rob")],
            ["gate-error", "--nt", "10", "--nt", "100", "--p-target", "1e-4", "--out", str(pass_dir / "gate")],
        ]
        self.sink.seek(0)
        self.sink.truncate()
        with contextlib.redirect_stdout(self.sink):
            return [self.runner.main(argv) for argv in commands]

    def check(self, pass_dir: Path, codes: list[int]) -> Outcome:
        try:
            sha = hashlib.sha256()
            files = nbytes = 0
            for path in sorted(p for p in pass_dir.rglob("*") if p.is_file()):
                data = path.read_bytes()
                sha.update(path.relative_to(pass_dir).as_posix().encode() + b"\0")
                sha.update(data)
                files += 1
                nbytes += len(data)
            summary = json.loads((pass_dir / "char" / "summary.json").read_text())
            c_hat = np.array([summary["c_hat"][k] for k in ("c1", "c2", "c3")], dtype=float)
            sigma = np.array([summary["sigma"][k] for k in ("c1", "c2", "c3")], dtype=float)
            w_hat = np.array([summary["frequencies"][f"psi{i}"]["value"] for i in range(1, 5)], dtype=float)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Outcome(ok=False, note=f"artifacts unreadable: {exc!r}")
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        artifact_sha = sha.hexdigest()
        if self.reference_sha is None:
            self.reference_sha = artifact_sha
        miss = np.abs(c_hat - np.array(self.truth))
        w_true = np.abs(COMBINATIONS @ np.array(self.truth))
        ratios = np.abs(w_hat - w_true) / w_true / _resolution(self.nt, self.NE)
        problems = []
        if any(code != 0 for code in codes):
            problems.append(f"exit codes {codes}")
        if artifact_sha != self.reference_sha:
            problems.append("artifacts differ from the first pass")
        if not np.all(miss <= 1e-6):
            problems.append(f"c_hat {c_hat.tolist()} misses truth {list(self.truth)}")
        return Outcome(
            ok=not problems,
            miss_sigmas=float(np.max(miss / sigma)),
            ratios=tuple(float(r) for r in ratios),
            digest=artifact_sha,
            files=files,
            nbytes=nbytes,
            note="; ".join(problems),
        )


WORKLOADS = {cls.name: cls for cls in (DeskCharacterize, EndpointSweep, CliNoiseless)}
