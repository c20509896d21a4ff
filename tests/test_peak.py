"""``scripts/peak.py``, and the memory ``analyze`` takes to write its rows:
no more than ``validate`` takes plus a bounded margin, whatever the output's size."""

import hashlib
import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

from qhist import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("peak", ROOT / "scripts" / "peak.py")
peak_script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_script)
LINE = re.compile(r"(.*): exit (\d+), ([\d.]+) s, ([\d.]+) MB peak, (\d+) B out, "
                  r"sha256 ([0-9a-f]{64})(?:  (.*))?")
MARGIN_MB = 25


def sz_chain(tmp_path, n: int) -> str:
    """A qubit from up_z, measured in sigma_z at each of n slots: 2**n histories, one nonzero."""
    times = [f"t{k}" for k in range(n + 1)]
    measurements = [{"time": t, "observable": "sigma_z"} for t in times[1:]]
    doc = {"format": 1, "name": f"sz_chain_{n}", "systems": [2], "initial_state": "up_z", "times": times,
           "observers": [{"name": "O1", "measurements": measurements}]}
    path = tmp_path / f"sz_chain_{n}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def peak(*argv) -> dict:
    """One ``qhist`` command line run by ``scripts/peak.py`` on this tree, as a
    process of its own: a child's peak RSS counts what its parent held at the
    fork, and the test process holds far more than the script."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "peak.py"), str(ROOT), "--", *argv],
                          capture_output=True, text=True, timeout=300, check=True)
    tree, code, seconds, peak_mb, size, sha256, stderr = LINE.fullmatch(proc.stdout.rstrip("\n")).groups()
    assert tree == str(ROOT)
    return {"code": int(code), "seconds": float(seconds), "peak_mb": float(peak_mb), "bytes": int(size),
            "sha256": sha256, "stderr": stderr}


def test_a_run_reports_its_code_output_and_peak(tmp_path, capsys):
    path = sz_chain(tmp_path, 3)
    assert cli.main(["analyze", path, "--json"]) == 0
    out = capsys.readouterr().out.encode()
    run = peak("analyze", path, "--json")
    assert run["code"] == 0 and run["stderr"] is None
    assert run["peak_mb"] > 0 and run["seconds"] > 0
    assert (run["bytes"], run["sha256"]) == (len(out), hashlib.sha256(out).hexdigest())
    missing = peak("validate", str(tmp_path / "missing.json"))
    assert (missing["code"], missing["bytes"], missing["sha256"]) == (1, 0, hashlib.sha256(b"").hexdigest())
    assert missing["stderr"].startswith("error: [Errno 2] No such file")


def test_analyze_of_an_18_slot_chain_peaks_near_validate(tmp_path):
    """262144 rows, over 100 MB of JSON: the rows are written in chunks, never held whole."""
    path = sz_chain(tmp_path, 18)
    floor = peak("validate", path)
    assert floor["code"] == 0
    for flags in (["--json"], []):
        run = peak("analyze", path, *flags)
        assert run["code"] == 0 and run["stderr"] is None, flags
        assert run["peak_mb"] <= floor["peak_mb"] + MARGIN_MB, (flags, run["peak_mb"], floor["peak_mb"])


PROBE = ["-c", "import os, sys; print(os.environ.get('PYTHONPYCACHEPREFIX'), sys.flags.dont_write_bytecode)"]


@pytest.mark.parametrize("inherited", [False, True], ids=["no_prefix", "inherited_prefix"])
def test_a_child_writes_no_bytecode_and_looks_for_none_under_a_prefix(inherited, monkeypatch, tmp_path):
    """With no ``pycache``, the child reads bytecode where a plain
    interpreter does, numpy's installed bytecode included, and writes none,
    whatever the caller's environment says."""
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    if inherited:
        monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path))
    run = peak_script.measure(ROOT, PROBE)
    assert (run["code"], run["sha256"]) == (0, hashlib.sha256(b"None 1\n").hexdigest()), run["stderr"]


def test_a_child_given_a_pycache_reads_and_writes_bytecode_there(monkeypatch, tmp_path):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "inherited"))
    cache = str(tmp_path / "cache")
    run = peak_script.measure(ROOT, PROBE, cache)
    assert (run["code"], run["sha256"]) == (0, hashlib.sha256(f"{cache} 0\n".encode()).hexdigest()), run["stderr"]
