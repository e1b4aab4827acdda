"""tools/records_gate.py: identical trees pass the gate, and a tree whose
tolerances changed trips it."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATE = ROOT / "tools" / "records_gate.py"

SWEEPS = {"sweeps": [
    {"name": "basic-rational", "args": {"suite": "rmatrix-basic", "kind": "rational",
                                        "samples": 1}},
    {"name": "nth-rational", "args": {"suite": "nth-order", "kind": "rational",
                                      "n_max": 3, "samples": 1}},
    {"name": "apps-elliptic-hbar", "args": {"suite": "applications", "kind": "elliptic",
                                            "samples": 1, "hbar": "0.21+0.17j"}},
]}


def gate(tmp_path, against):
    sweeps = tmp_path / "sweeps.json"
    sweeps.write_text(json.dumps(SWEEPS))
    return subprocess.run(
        [sys.executable, str(GATE), "--sweeps", str(sweeps), "--against", str(against)],
        capture_output=True, text=True, timeout=300)


def test_a_tree_passes_against_itself(tmp_path):
    out = gate(tmp_path, ROOT)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "byte-identical: 3 of 3 sweeps" in out.stdout
    assert out.stdout.rstrip().endswith("gate: passed")
    # one hash per tree, equal here
    hashes = [line.split()[-1] for line in out.stdout.splitlines()
              if line.startswith("  /")]
    assert len(hashes) == 2 and hashes[0] == hashes[1]


def test_a_changed_tolerance_trips_the_gate(tmp_path):
    mutant = tmp_path / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    identities = mutant / "src" / "rmx" / "identities.py"
    text = identities.read_text()
    assert text.count("return 1e-13") == 1
    identities.write_text(text.replace("return 1e-13", "return 1e-30"))
    out = gate(tmp_path, mutant)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "passed True -> False" in out.stdout or "passed False -> True" in out.stdout
    assert out.stdout.rstrip().endswith("gate: TRIPPED")


def test_a_dropped_details_key_is_named(tmp_path):
    # a record whose residual did not move still names the details keys it
    # lost; that alone does not trip the gate
    mutant = tmp_path / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    identities = mutant / "src" / "rmx" / "identities.py"
    text = identities.read_text()
    old = 'algorithm="lockstep-subset-dp-probe", probes=x.shape[1])'
    assert text.count(old) == 1
    identities.write_text(text.replace(old, 'algorithm="lockstep-subset-dp-probe")'))
    out = gate(tmp_path, mutant)
    assert out.returncode == 0, out.stdout + out.stderr
    # this tree has the key the mutant dropped
    assert ("  nth-rational nth-order/rational/outer-3: details keys added: probes; "
            "removed: none") in out.stdout.splitlines()
    assert "  nth-rational: 1 of" in out.stdout
    assert out.stdout.rstrip().endswith("gate: passed")
