"""CLI tests: config validation, artifacts, determinism, and exit codes."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from entmap.runner import (
    CONFIG_KEYS,
    EXIT_CONFIG,
    EXIT_INCONSISTENT,
    EXIT_IO,
    EXIT_OK,
    MAX_NE,
    MAX_NE_COUNT,
    MAX_NT,
    ConfigError,
    main,
    resolve_config,
)
from entmap.qcore import INPUT_IDS
from entmap.recon import MAX_COUPLING

BASE_CONFIG = {
    "hamiltonian": {"c1": 1.2, "c2": 0.6, "c3": 1.4},
    "plan": {"nt": 64, "ne": 4},
    "mode": "noiseless",
    "seed": 0,
}


def write_config(path, **overrides):
    cfg = dict(BASE_CONFIG)
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path, columns):
    rows = []
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    idx = [header.index(c) for c in columns]
    for line in lines[2:]:
        if line:
            cells = line.split(",")
            rows.append([float(cells[i]) for i in idx])
    return np.array(rows)


def test_resolve_config_defaults():
    payload = resolve_config({"hamiltonian": {"c1": 1.0, "c2": 0.5, "c3": 0.2}}).payload
    assert payload["plan"]["nt"] == 200
    assert payload["plan"]["ne"] == 10
    assert payload["mode"] == "sampled"
    assert payload["eta"] == 0.0
    assert payload["plan"]["strategy"] == "uniform"


def test_resolve_config_bounds_coupling_magnitudes():
    cfg = resolve_config({"hamiltonian": {"c1": 1.0, "c2": 0.5, "c3": -MAX_COUPLING}})
    assert cfg.hamiltonian.c3 == -MAX_COUPLING
    with pytest.raises(ConfigError, match="hamiltonian.c3"):
        resolve_config({"hamiltonian": {"c1": 1.0, "c2": 0.5, "c3": -np.nextafter(MAX_COUPLING, np.inf)}})


def test_resolve_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        resolve_config({"hamiltonian": {"c1": 1, "c2": 1, "c3": 1}, "plann": {}})
    with pytest.raises(ConfigError):
        resolve_config({"hamiltonian": {"c1": 1, "c2": 1, "c3": 1}, "plan": {"nt": 64, "shots": 2}})
    with pytest.raises(ConfigError):
        resolve_config({"hamiltonian": {"c1": 1, "c2": 1, "c4": 1}})


def test_resolve_config_validates_values():
    good = {"hamiltonian": {"c1": 1, "c2": 1, "c3": 1}}
    with pytest.raises(ConfigError):
        resolve_config({**good, "eta": 1.0})
    with pytest.raises(ConfigError):
        resolve_config({**good, "plan": {"nt": 3}})
    with pytest.raises(ConfigError):
        resolve_config({**good, "mode": "exact"})
    with pytest.raises(ConfigError):
        resolve_config({**good, "seed": -1})
    with pytest.raises(ConfigError):
        resolve_config({**good, "plan": {"nt": 10.5}})
    with pytest.raises(ConfigError):
        resolve_config({**good, "robustness": {"etas": [0.3]}})
    with pytest.raises(ConfigError):
        resolve_config({**good, "robustness": {"etas": []}})
    with pytest.raises(ConfigError):
        resolve_config({**good, "plans": {"psi9": {"nt": 10}}})
    with pytest.raises(ConfigError):
        resolve_config({"hamiltonian": {"c1": 1, "c2": 1}})


def test_config_hash_ignores_output_location():
    a = resolve_config({**BASE_CONFIG, "out": "runs/a"})
    b = resolve_config({**BASE_CONFIG, "out": "runs/b"})
    c = resolve_config({**BASE_CONFIG, "plan": {"nt": 128, "ne": 4}})
    assert a.config_hash == b.config_hash
    assert a.config_hash != c.config_hash


def test_seed_priority(tmp_path, monkeypatch):
    """Env var beats the CLI flag, which beats the config file."""
    cfg_path = write_config(tmp_path / "cfg.json", seed=1)

    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    out1 = tmp_path / "r1"
    assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == EXIT_OK
    assert json.loads((out1 / "manifest.json").read_text())["seed"] == 1

    out2 = tmp_path / "r2"
    assert main(["simulate", "--config", cfg_path, "--seed", "2", "--out", str(out2)]) == EXIT_OK
    assert json.loads((out2 / "manifest.json").read_text())["seed"] == 2

    monkeypatch.setenv("ENTMAP_SEED", "3")
    out3 = tmp_path / "r3"
    assert main(["simulate", "--config", cfg_path, "--seed", "2", "--out", str(out3)]) == EXIT_OK
    assert json.loads((out3 / "manifest.json").read_text())["seed"] == 3


def test_invalid_env_seed_is_a_config_error(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path / "cfg.json")
    monkeypatch.setenv("ENTMAP_SEED", "abc")
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "r")]) == EXIT_CONFIG


def test_simulate_writes_four_series(tmp_path, monkeypatch):
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    cfg_path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    for name in ("psi1", "psi2", "psi3", "psi4"):
        assert (out / f"series_{name}.csv").exists()
    data = read_csv(out / "series_psi2.csv", ["t", "c2_estimate"])
    assert data.shape[0] == 64
    np.testing.assert_allclose(data[:, 1], np.sin(3.6 * data[:, 0]) ** 2, atol=1e-10)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert sorted(manifest["files"]) == [f"series_psi{i}.csv" for i in (1, 2, 3, 4)]


def test_simulate_sampled_runs_are_reproducible(tmp_path, monkeypatch):
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    cfg_path = write_config(tmp_path / "cfg.json", mode="sampled", seed=5)
    out1, out2, out3 = (tmp_path / n for n in ("r1", "r2", "r3"))
    assert main(["simulate", "--config", cfg_path, "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", cfg_path, "--out", str(out2)]) == EXIT_OK
    assert main(["simulate", "--config", cfg_path, "--seed", "6", "--out", str(out3)]) == EXIT_OK
    for name in ("psi1", "psi2", "psi3", "psi4"):
        b1 = (out1 / f"series_{name}.csv").read_bytes()
        b2 = (out2 / f"series_{name}.csv").read_bytes()
        assert b1 == b2
    assert (out1 / "series_psi1.csv").read_bytes() != (out3 / "series_psi1.csv").read_bytes()


def test_spectrum_requires_series(tmp_path, monkeypatch):
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    cfg_path = write_config(tmp_path / "cfg.json")
    assert main(["spectrum", "--config", cfg_path, "--out", str(tmp_path / "r")]) == EXIT_IO


def test_spectrum_finds_protocol_peaks(tmp_path, monkeypatch):
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    cfg_path = write_config(tmp_path / "cfg.json", plan={"nt": 200, "ne": 10})
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    assert main(["spectrum", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    peaks = json.loads((out / "peaks.json").read_text())
    targets = {"psi1": 2.4, "psi2": 7.2, "psi3": 3.2, "psi4": 8.0}
    for name, target in targets.items():
        entry = peaks[name]
        assert not entry["no_oscillation"]
        # each per-input plan puts its own line on bin 80, so one bin is target/80
        assert abs(entry["omega"] - target) <= target / 80.0 + 1e-9
    spec = read_csv(out / "spectrum_psi1.csv", ["omega", "magnitude"])
    assert spec.shape[0] == 101


def test_spectrum_flat_series_flagged_not_fatal(tmp_path, monkeypatch):
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    cfg_path = write_config(
        tmp_path / "cfg.json",
        hamiltonian={"c1": 0.7, "c2": 0.7, "c3": 0.7},
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    assert main(["spectrum", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    peaks = json.loads((out / "peaks.json").read_text())
    assert peaks["psi1"] == {"no_oscillation": True}
    assert not peaks["psi2"]["no_oscillation"]


def test_spectrum_rejects_stale_series(tmp_path, monkeypatch):
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    cfg_path = write_config(tmp_path / "cfg.json")
    out = tmp_path / "run"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    stale_path = write_config(tmp_path / "cfg2.json", plan={"nt": 128, "ne": 4})
    assert main(["spectrum", "--config", stale_path, "--out", str(out)]) == EXIT_CONFIG


def test_characterize_noiseless_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    cfg_path = write_config(tmp_path / "cfg.json", plan={"nt": 200, "ne": 10})
    out = tmp_path / "run"
    assert main(["characterize", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["c_hat"]["c1"] == pytest.approx(1.2, abs=1e-6)
    assert summary["c_hat"]["c2"] == pytest.approx(0.6, abs=1e-6)
    assert summary["c_hat"]["c3"] == pytest.approx(1.4, abs=1e-6)
    assert summary["convention"] == "c2 >= 0"
    assert summary["mode"] == "noiseless"
    assert set(summary["frequencies"]) == {"psi1", "psi2", "psi3", "psi4"}
    assert not summary["frequencies"]["psi1"]["degenerate"]
    assert "c_hat = (" in capsys.readouterr().out


def test_characterize_inconsistent_frequencies_exit_code(tmp_path, monkeypatch):
    """An aliased slow line produces a quad no sign assignment can explain."""
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    cfg_path = write_config(
        tmp_path / "cfg.json",
        plan={"nt": 200, "ne": 10},
        plans={"psi1": {"dt": 3.0}},
    )
    out = tmp_path / "run"
    assert main(["characterize", "--config", cfg_path, "--out", str(out)]) == EXIT_INCONSISTENT


def test_gate_error_curves_and_threshold(tmp_path):
    out = tmp_path / "gate"
    rc = main(
        [
            "gate-error",
            "--nt", "10",
            "--nt", "100",
            "--ne-range", "1", "4096", "13",
            "--p-target", "1e-4",
            "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    for nt in (10, 100):
        data = read_csv(out / f"gate_error_nt{nt}.csv", ["n_total", "epsilon", "p_eff"])
        assert data.shape[0] == 13
        assert np.all(np.diff(data[:, 2]) <= 0)
        np.testing.assert_allclose(
            data[:, 1], 4.0 / (nt * np.sqrt((data[:, 0] - 2 * nt) / 2.0)), rtol=1e-12
        )
    threshold = json.loads((out / "threshold.json").read_text())
    entry = threshold["10"]
    assert entry["p_eff"] <= 1e-4
    assert entry["n_total"] == 2 * 10 + 2 * entry["ne"]


def test_gate_error_flags_do_not_carry_over_between_calls(tmp_path):
    """main reuses one parser per process; each call starts from the flag defaults."""
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["gate-error", "--nt", "10", "--nt", "20", "--ne-range", "1", "8", "2", "--out", str(first)]) == EXIT_OK
    assert main(["gate-error", "--nt", "12", "--out", str(second)]) == EXIT_OK
    assert sorted(p.name for p in first.glob("gate_error_nt*.csv")) == ["gate_error_nt10.csv", "gate_error_nt20.csv"]
    assert [p.name for p in second.glob("gate_error_nt*.csv")] == ["gate_error_nt12.csv"]
    # The default --ne-range 1 8192 27 rounds to 26 distinct budgets, not the first call's 2.
    assert read_csv(second / "gate_error_nt12.csv", ["n_total"]).shape[0] == 26


def test_gate_error_rejects_bad_ranges(tmp_path):
    assert main(["gate-error", "--ne-range", "0", "10", "5"]) == EXIT_CONFIG
    assert main(["gate-error", "--ne-range", "10", "5", "3"]) == EXIT_CONFIG
    assert main(["gate-error", "--nt", "3"]) == EXIT_CONFIG
    assert main(["gate-error", "--p-target", "0"]) == EXIT_CONFIG


# Each row is rejected before any budget array or config is read, so no bound allocates.
# gate-error's rows check its bounded flags; the other rows check flags a subcommand does not take.
GATE_ERROR_BAD_FLAGS = [
    ("MAX 401 digits", "gate-error", ["--ne-range", "1", "9" * 401, "3"], "--ne-range"),
    ("MAX past MAX_NE", "gate-error", ["--ne-range", "1", str(MAX_NE + 1), "3"], "--ne-range"),
    ("COUNT past its bound", "gate-error", ["--ne-range", "1", "8", str(MAX_NE_COUNT + 1)], "--ne-range"),
    ("p-target needing more than MAX_NE", "gate-error", ["--nt", "10", "--p-target", "1e-21"], "--p-target"),
    ("p-target 1e-40", "gate-error", ["--p-target", "1e-40"], "--p-target"),
    ("nt 401 digits", "gate-error", ["--nt", "9" * 401], "--nt"),
    ("nt past MAX_NT", "gate-error", ["--nt", str(MAX_NT + 1)], "--nt"),
    ("seed", "gate-error", ["--seed", "1"], "unrecognized arguments: --seed"),
    ("config", "gate-error", ["--config", "cfg.json"], "unrecognized arguments: --config"),
    ("mode", "gate-error", ["--mode", "sampled"], "unrecognized arguments: --mode"),
] + [
    (f"{command} mode", command, ["--config", "cfg.json", "--mode", "noiseless"], "unrecognized arguments: --mode")
    for command in ("simulate", "spectrum", "characterize", "robustness")
]


@pytest.mark.parametrize(
    "label,command,flags,where", GATE_ERROR_BAD_FLAGS, ids=[c[0] for c in GATE_ERROR_BAD_FLAGS]
)
def test_gate_error_bad_flags_exit_2_and_name_their_place(tmp_path, capsys, label, command, flags, where):
    out = tmp_path / "gate"
    assert main([command, "--out", str(out)] + flags) == EXIT_CONFIG
    assert where in capsys.readouterr().err
    assert not out.exists()


# Each row writes gate_error_nt10.csv once, with the n_total column listed.
GATE_ERROR_BUDGET_CASES = [
    ("budget rounds past MAX", ["--nt", "10", "--ne-range", "1", str(MAX_NE), "2"], [22, 20 + 2 * MAX_NE]),
    ("repeated nt", ["--nt", "10", "--nt", "10", "--ne-range", "1", "8", "2"], [22, 36]),
]


@pytest.mark.parametrize(
    "label,flags,n_totals", GATE_ERROR_BUDGET_CASES, ids=[c[0] for c in GATE_ERROR_BUDGET_CASES]
)
def test_gate_error_writes_each_curve_once_within_its_budget_range(tmp_path, capsys, label, flags, n_totals):
    out = tmp_path / "gate"
    assert main(["gate-error", "--out", str(out)] + flags) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [f"wrote {out / 'gate_error_nt10.csv'}"]
    rows = (out / "gate_error_nt10.csv").read_text().splitlines()[2:]
    assert [int(row.split(",")[0]) for row in rows] == n_totals


def test_readme_config_example_sets_every_key_the_schema_accepts(monkeypatch):
    """The README's config example resolves, and sets exactly the keys CONFIG_KEYS accepts."""
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"### Config file\n.*?```json\n(.*?)```", readme, flags=re.S)
    raw = json.loads(block)
    resolve_config(raw)
    assert set(raw) == set(CONFIG_KEYS)
    for key, keys in CONFIG_KEYS.items():
        if keys is None:
            continue
        if key == "plans":
            assert set(raw["plans"]) <= set(INPUT_IDS)
            assert set().union(*raw["plans"].values()) == set(keys)
        else:
            assert set(raw[key]) == set(keys), key


def test_robustness_artifacts(tmp_path, monkeypatch):
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    cfg_path = write_config(
        tmp_path / "cfg.json",
        robustness={"etas": [0.0, 0.05], "nt": 64, "ne": 4},
    )
    out = tmp_path / "run"
    assert main(["robustness", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    rows = (out / "robustness.csv").read_text().splitlines()
    header = rows[1].split(",")
    assert header == [
        "eta",
        "main_peak_omega",
        "main_amp",
        "amp_w1p2",
        "amp_w1m3",
        "amp_w1p3",
        "amp_w2m3",
        "amp_w2p3",
    ]
    clean = [float(x) for x in rows[2].split(",")]
    dirty = [float(x) for x in rows[3].split(",")]
    assert clean[2] == pytest.approx(0.5, abs=1e-9)
    assert max(clean[3:]) < 1e-9
    assert dirty[2] / clean[2] == pytest.approx(1.0 / 1.05**2, rel=1e-9)
    for amp in dirty[4:]:
        assert amp / dirty[2] == pytest.approx(0.05, abs=1e-9)
    assert dirty[3] / dirty[2] == pytest.approx(0.05**2, abs=1e-9)
    curve = read_csv(out / "robustness_curve_eta0.05.csv", ["t", "c2_exact", "c2_first_order"])
    assert float(np.abs(curve[:, 1] - curve[:, 2]).max()) < 10.0 * 0.05**2

    # c1 = c2: psi1's main line vanishes, so the clean trace has no peak and the
    # dirty one peaks at the bin nearest the w1p2 contaminant's line 4*(c1 + c2) = 7.2.
    cfg_path = write_config(
        tmp_path / "vanishing.json",
        hamiltonian={"c1": 0.9, "c2": 0.9, "c3": 1.4},
        robustness={"etas": [0.0, 0.05], "nt": 64, "ne": 4},
    )
    out = tmp_path / "vanishing"
    assert main(["robustness", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
    table = read_csv(out / "robustness.csv", header)
    assert table[0].tolist() == [0.0] * len(header)
    assert table[1, 1] == pytest.approx(7.1875, rel=1e-12)


def test_missing_config_file_is_a_config_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == EXIT_CONFIG


def _series_line_edit(field, value):
    def edit(fields):
        fields = list(fields)
        if value is None:
            del fields[field]
        else:
            fields[field] = value(fields[field]) if callable(value) else value
        return fields

    return edit


BAD_INPUT_CASES = [
    ("wrong field count", _series_line_edit(3, None), "series_psi1.csv:4:"),
    ("non-number", _series_line_edit(1, "abc"), "series_psi1.csv:4:"),
    ("nan", _series_line_edit(1, "nan"), "series_psi1.csv:4:"),
    ("c2 above one", _series_line_edit(1, "1.5"), "series_psi1.csv:4:"),
    ("negative shots", _series_line_edit(2, "-1"), "series_psi1.csv:4:"),
    ("shots 2**63", _series_line_edit(2, str(2**63)), "series_psi1.csv:4:"),
    ("off-grid time", _series_line_edit(0, lambda t: repr(float(t) * 1.01)), "series_psi1.csv:4:"),
    ("shots in the other channel", _series_line_edit(3, "5"), "series_psi1.csv:4:"),
    ("not UTF-8", _series_line_edit(1, lambda c2: c2 + "\udcff"), "series_psi1.csv:"),
    ("duplicate eta tag", {"robustness": {"etas": [0.05, 0.05000001], "nt": 64}}, "robustness.etas[1]"),
    ("c1 1e160", {"hamiltonian": {"c1": 1e160, "c2": 0.6, "c3": 1.4}}, "hamiltonian.c1"),
    ("c1 1e300", {"hamiltonian": {"c1": 1e300, "c2": 0.6, "c3": 1.4}}, "hamiltonian.c1"),
    ("c1 400 digits", {"hamiltonian": {"c1": 10**400, "c2": 0.6, "c3": 1.4}}, "hamiltonian.c1"),
    ("seed 400 digits", {"seed": 10**400}, "config.seed"),
    ("nt 400 digits", {"plan": {"nt": 10**400}}, "plan.nt"),
    ("dt 400 digits", {"plans": {"psi1": {"dt": 10**400}}}, "plans.psi1.dt"),
    ("nt 1e300", {"plan": {"nt": 1e300}}, "plan.nt"),
    ("nt past 2**32", {"plan": {"nt": 2**32 + 1}}, "plan.nt"),
    ("nt past 2**20", {"plan": {"nt": 2**20 + 1}}, "plan.nt"),
    ("robustness nt past 2**20", {"robustness": {"nt": 2**20 + 1}}, "robustness.nt"),
    ("ne 2**63", {"plan": {"nt": 64, "ne": 2**63}}, "plan.ne"),
    ("psi1 ne 2**63", {"plans": {"psi1": {"ne": 2**63}}}, "plans.psi1.ne"),
    ("robustness ne 2**63", {"robustness": {"ne": 2**63}}, "robustness.ne"),
]

# Config overrides are run through the subcommand that reads them; line edits
# corrupt a simulated series_psi1.csv before spectrum reads it back.
COMMAND_FOR_CONFIG_KEY = {
    "robustness": "robustness",
    "hamiltonian": "characterize",
    "seed": "simulate",
    "plan": "simulate",
    "plans": "characterize",
}


@pytest.mark.parametrize("label,edit,where", BAD_INPUT_CASES, ids=[c[0] for c in BAD_INPUT_CASES])
def test_bad_inputs_exit_2_and_name_their_place(tmp_path, monkeypatch, capsys, label, edit, where):
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    out = tmp_path / "run"
    if isinstance(edit, dict):
        cfg_path = write_config(tmp_path / "cfg.json", **edit)
        (command,) = {COMMAND_FOR_CONFIG_KEY[key] for key in edit}
        assert main([command, "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()
    else:
        cfg_path = write_config(tmp_path / "cfg.json", mode="sampled")
        assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        path = out / "series_psi1.csv"
        lines = path.read_text().splitlines()
        lines[3] = ",".join(edit(lines[3].split(",")))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
        capsys.readouterr()
        assert main(["spectrum", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
    assert where in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"hamiltonian": {"c1": 1.2, "c2": 0.6, "c3": 1.4}, "seed": ' + "9" * 5000 + "}",
        "[" * 200000,
        "\udcff\udcfe{}",
    ],
    ids=["integer past the digit limit", "nesting past the recursion limit", "not UTF-8"],
)
def test_config_json_past_python_limits_exits_2(tmp_path, capsys, text):
    """A config Python cannot decode, or parses without a JSONDecodeError, is a config error, not a crash."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text, encoding="utf-8", errors="surrogateescape")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == EXIT_CONFIG
    assert "cfg.json" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


TINY_COUPLINGS = {"c1": 5e-324, "c2": 0.0, "c3": 0.0}
OVERFLOWING_GRIDS = [
    ("couplings 5e-324", {"hamiltonian": TINY_COUPLINGS}, "hamiltonian"),
    ("couplings 3e-309", {"hamiltonian": {"c1": 3e-309, "c2": 0.0, "c3": 0.0}}, "hamiltonian"),
    (
        "couplings 5e-324, every dt set",
        {"hamiltonian": TINY_COUPLINGS, "plans": {input_id: {"dt": 0.05} for input_id in INPUT_IDS}},
        "hamiltonian",
    ),
    ("psi1 dt 1e308", {"plans": {"psi1": {"dt": 1e308}}}, "plans.psi1"),
    ("psi1 dt 1e-320", {"plans": {"psi1": {"dt": 1e-320}}}, "plans.psi1"),
]


@pytest.mark.parametrize("command", ["simulate", "spectrum", "characterize", "robustness"])
@pytest.mark.parametrize("label,edit,where", OVERFLOWING_GRIDS, ids=[c[0] for c in OVERFLOWING_GRIDS])
def test_grids_that_overflow_float64_exit_2_and_name_their_place(
    tmp_path, monkeypatch, capsys, command, label, edit, where
):
    """A time span nt*dt or bin width 2*pi/(nt*dt) past float64 is a config error for every command."""
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    cfg_path = write_config(tmp_path / "cfg.json", plan={"nt": 16, "ne": 4}, mode="sampled", **edit)
    out = tmp_path / "run"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {where}:" in capsys.readouterr().err
    assert not out.exists()
