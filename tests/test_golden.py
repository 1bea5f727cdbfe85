"""Golden SHA-256 pins of the CLI artifacts.

Each pin is the digest of every file one subcommand writes (manifest.json
excluded: it records library versions), in name order.  The pins were taken
before the hot path was rewritten on arrays, the gate-error pin before the
CSV writers were merged, and the characterize pins after the inversion went
closed-form; a change that moves one on purpose names the pin and the reason
in CHANGES.md.  The all-keys pin is the config_hash of
one config that sets every key, so it pins how each value enters the hash.
"""

import hashlib
import json

import pytest

from entmap.runner import EXIT_OK, main, resolve_config

H_REF = {"c1": 1.2, "c2": 0.6, "c3": 1.4}
ROBUSTNESS = {"etas": [0.0, 0.05], "nt": 64, "ne": 4}

CONFIGS = {
    "sampled_uniform": {
        "hamiltonian": H_REF,
        "plan": {"nt": 64, "ne": 4, "strategy": "uniform"},
        "mode": "sampled",
        "seed": 11,
        "robustness": ROBUSTNESS,
    },
    "sampled_endpoint": {
        "hamiltonian": H_REF,
        "plan": {"nt": 64, "ne": 16, "strategy": "endpoint"},
        "mode": "sampled",
        "seed": 3,
        "robustness": ROBUSTNESS,
    },
    "noiseless": {
        "hamiltonian": H_REF,
        "plan": {"nt": 64, "ne": 4, "strategy": "uniform"},
        "mode": "noiseless",
        "seed": 0,
        "robustness": ROBUSTNESS,
    },
}

PINS = {
    "noiseless": {
        "simulate": "5863a19ae3138b6201c8724ac7b545647d8241089030038fd74ad39e0c9187eb",
        "spectrum": "80510eac5836c1a34ae4944b8fe77b2167fd83b9eadd39aa0405549309e891bd",
        "characterize": "deec204899034eedfc1832238048022f65372acdf1bdf03dd4a831a45acca9e5",
        "robustness": "cb100e36a2f8eca83fc7514d1e548cbb8204cfb21c18a4e18d8e997e7511e10e",
    },
    "sampled_endpoint": {
        "simulate": "ff644b5eb69eaa7f2b9f216e413f9785ff2843f1da1abaecd06c600360b502e8",
        "spectrum": "a0dd512585cffa388ca7141c16c9ce3ccaa14bcbf2f911d61865cb7fcd6dc0dd",
        "characterize": "205c37951f44bcd3d38b4d089b9ce4875eecda27772370314cb0d8613723ef6d",
        "robustness": "5f55fb4bdf06488122decaf946481fd100d457767862644640ef327d0ff50828",
    },
    "sampled_uniform": {
        "simulate": "ce13b8fde21fe4f29a0ca794a7960ccc56b96fd9d01fec1bbe7b9374587922b3",
        "spectrum": "7fee80cab767bafc09ca1ae896401a848f84ff3b776c9a03ee5c339a90321d11",
        "characterize": "6b3b72a66c99ec5a42d9423698095d1ad7359863444b00571a7c5ab503bc99de",
        "robustness": "0a9fe18139385d8d20bf7ecad87233b6da6cbab5781f1daa87bd7c172446a187",
    },
}

# Sets every config key, with values a rewrite of the validation could keep
# uncoerced: eta 0 -> 0.0, nt 64.0 -> 64, c1 1 -> 1.0, etas [0, ...] -> [0.0, ...].
ALL_KEYS_CONFIG = {
    "hamiltonian": {"c1": 1, "c2": 0.6, "c3": -1.4},
    "plan": {"nt": 64.0, "ne": 4, "strategy": "endpoint"},
    "plans": {"psi1": {"dt": 0.05, "ne": 8, "strategy": "uniform"}, "psi2": {"nt": 32}},
    "eta": 0,
    "seed": 7,
    "mode": "noiseless",
    "out": "runs/all-keys",
    "robustness": {"etas": [0, 0.05], "nt": 48, "ne": 6},
}
ALL_KEYS_CONFIG_HASH = "e85bb1222d83d14fc22e2bb0bcee72608a63b23cd36e73b19d890427903a4324"

GATE_ERROR_ARGS = ["gate-error", "--nt", "10", "--nt", "100", "--p-target", "1e-4"]
GATE_ERROR_FILES = ["gate_error_nt10.csv", "gate_error_nt100.csv", "threshold.json"]
GATE_ERROR_PIN = "4a12a30229b3d0b36993bac75701ef52cde89eb20661cf2b559f30d52b047990"


def artifact_digest(directory, names):
    sha = hashlib.sha256()
    for name in sorted(names):
        sha.update(name.encode() + b"\0")
        sha.update((directory / name).read_bytes())
    return sha.hexdigest()


def run_all(tmp_path, monkeypatch, config):
    """Run the four artifact subcommands; returns {command: digest}."""
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    digests = {}
    for command, out in (
        ("simulate", "sim"),
        ("spectrum", "sim"),
        ("characterize", "char"),
        ("robustness", "rob"),
    ):
        directory = tmp_path / out
        assert main([command, "--config", str(cfg), "--out", str(directory)]) == EXIT_OK
        manifest = json.loads((directory / "manifest.json").read_text())
        digests[command] = artifact_digest(directory, manifest["files"])
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_pins(name, tmp_path, monkeypatch):
    digests = run_all(tmp_path, monkeypatch, CONFIGS[name])
    for command, digest in digests.items():
        assert digest == PINS[name][command], f"{name}: {command} artifacts moved"


def test_gate_error_artifacts_match_golden_pin(tmp_path):
    directory = tmp_path / "gate"
    assert main(GATE_ERROR_ARGS + ["--out", str(directory)]) == EXIT_OK
    assert sorted(p.name for p in directory.iterdir()) == GATE_ERROR_FILES
    assert artifact_digest(directory, GATE_ERROR_FILES) == GATE_ERROR_PIN


def test_all_keys_config_hash_matches_golden_pin(monkeypatch):
    monkeypatch.delenv("ENTMAP_SEED", raising=False)
    assert resolve_config(ALL_KEYS_CONFIG).config_hash == ALL_KEYS_CONFIG_HASH
