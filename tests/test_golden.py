"""Reports of `tools/reports.py`'s runs, pinned to their bytes.

`golden/reports.json` holds, for every run in `tools/reports.py`'s run
list, the run's exit code and either the sha256 of its report and the
numbers parsed from it or, for a run that fails, its standard error;
with them the numpy and scipy versions and the CPU features numpy had
enabled when it was made.  A benchmark workload's command on its seed-7
config is named by the workload, a shipped config's by CONFIG.COMMAND.
Each runs in this process.  On the build that made the goldens the test
compares bytes.  On any other it compares the parsed numbers within RTOL
and ATOL, since another build may round the last digits differently; it
prints which mode ran.  Exit codes and standard error are compared
exactly in both modes.  When bytes differ, the failure gives the run's
largest absolute and relative change of its parsed numbers, so that a
rounding move can be told from a real one.

Rewrite the goldens only in a change that means to move the reports:

    python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os

import numpy as np
import pytest
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "reports.json")
RTOL = 1e-9     # numbers mode: relative tolerance
ATOL = 1e-12    # numbers mode: absolute tolerance, for entries near 0


def _load_reports():
    spec = importlib.util.spec_from_file_location(
        "reports", os.path.join(ROOT, "tools", "reports.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reports = _load_reports()
from workloads import WORKLOADS  # noqa: E402  (reports puts it on the path)


def build() -> dict:
    """What decides the last bits of a report, besides the program."""
    features = np._core._multiarray_umath.__cpu_features__
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "cpu_features": sorted(k for k, on in features.items() if on)}


def numbers(text: str, suffix: str) -> dict:
    """Every field of a report by name: the `# key = value` header lines
    and the data columns of a CSV report (`column[row]`), or the leaves
    of a JSON one (`a.b[i]`); numbers as floats, the rest as text."""
    fields = {}

    def put(key, value):
        try:
            fields[key] = float(value)
        except (TypeError, ValueError):
            fields[key] = value

    if suffix == "json":
        def walk(prefix, node):
            if isinstance(node, dict):
                for k, v in node.items():
                    walk(f"{prefix}.{k}" if prefix else k, v)
            elif isinstance(node, list):
                for i, v in enumerate(node):
                    walk(f"{prefix}[{i}]", v)
            else:
                fields[prefix] = node
        walk("", json.loads(text))
        return fields
    lines = text.splitlines()
    while lines[0].startswith("# "):
        key, value = lines.pop(0)[2:].split(" = ", 1)
        put(key, value)
    columns = lines.pop(0).split(",")
    for i, line in enumerate(lines):
        for column, value in zip(columns, line.split(","), strict=True):
            put(f"{column}[{i}]", value)
    return fields


def run_id(name: str, command: str) -> str:
    """A workload's run is named by the workload, a shipped config's by
    CONFIG.COMMAND."""
    return name if name in WORKLOADS else f"{name}.{command}"


RUNS = {run_id(name, command): (name, command)
        for name, command in reports.runs()}


def record(run: str, directory: str) -> dict:
    """Run `run` in this process, on its config written by
    `tools/reports.py`; its exit code, and its report's hash and fields or,
    if it fails, its standard error."""
    from contmeas import cli
    name, command = RUNS[run]
    config = reports.write_config(directory, name)
    suffix = "csv" if command in ("counts", "homodyne") else "json"
    out = os.path.join(directory, f"{run}.{suffix}")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([command, "--config", config, "--out", out])
    if rc:
        return {"command": command, "exit": rc, "stderr": err.getvalue()}
    with open(out, "rb") as f:
        report = f.read()
    return {"command": command, "exit": rc,
            "sha256": hashlib.sha256(report).hexdigest(),
            "numbers": numbers(report.decode(), suffix)}


def changes(got: dict, want: dict) -> str:
    """The largest absolute and relative change from the numbers `want`
    to `got`, each with its field, over the fields both hold as numbers,
    and the fields that differ otherwise."""
    worst_abs = worst_rel = (0.0, None)
    other = list(set(got) ^ set(want))
    for key in sorted(want.keys() & got.keys()):
        a, b = got[key], want[key]
        if not (isinstance(a, float) and isinstance(b, float)):
            if a != b:
                other.append(key)
        elif a != b and not (math.isnan(a) and math.isnan(b)):
            worst_abs = max(worst_abs, (abs(a - b), key))
            if b:
                worst_rel = max(worst_rel, (abs(a - b) / abs(b), key))
    return (f"largest |change| {worst_abs[0]:.3g} ({worst_abs[1]}), "
            f"largest relative change {worst_rel[0]:.3g} ({worst_rel[1]}), "
            f"other fields changed: {sorted(other)}")


with open(GOLDEN) as f:
    GOLDENS = json.load(f)


@pytest.mark.parametrize("run", sorted(GOLDENS["runs"]))
def test_report_matches_golden(run, tmp_path):
    golden = GOLDENS["runs"][run]
    got = record(run, str(tmp_path))
    assert (got["command"], got["exit"]) == (golden["command"],
                                             golden["exit"])
    if got["exit"]:
        assert got["stderr"] == golden["stderr"]
        return
    if build() == GOLDENS["build"]:
        print(f"{run}: comparing bytes")
        assert got["sha256"] == golden["sha256"], changes(got["numbers"],
                                                          golden["numbers"])
        return
    print(f"{run}: another numpy, scipy or CPU than the goldens': "
          f"comparing numbers within rtol {RTOL:g}, atol {ATOL:g}")
    want = golden["numbers"]
    assert got["numbers"].keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, float):
            assert math.isclose(got["numbers"][key], value, rel_tol=RTOL,
                                abs_tol=ATOL), key
        else:
            assert got["numbers"][key] == value, key


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        got = {run: record(run, tmp) for run in RUNS}
    with open(GOLDEN, "w") as f:
        json.dump({"build": build(), "runs": dict(sorted(got.items()))},
                  f, indent=1)
        f.write("\n")
