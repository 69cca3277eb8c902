"""The reports of the four benchmark workloads, pinned to their bytes.

`golden/workloads.json` holds, for each perfbench workload's command on
its seed-7 config (written by `tools/reports.py`), the sha256 of the
report and the numbers parsed from it, together with the numpy and scipy
versions and the CPU features numpy had enabled when it was made.  On
that same build the test compares bytes.  On any other it compares the
parsed numbers within RTOL and ATOL, since another build may round the
last digits differently; it prints which mode ran.

Rewrite the goldens only in a change that means to move the reports:

    python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os

import numpy as np
import pytest
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "workloads.json")
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


def record(workload: str, directory: str) -> dict:
    """Run the workload's command in this process, on its config written
    by `tools/reports.py`; its exit code and its report's hash and fields."""
    from contmeas import cli
    command, _, suffix = WORKLOADS[workload]
    config = reports.write_workload_config(directory, workload)
    out = os.path.join(directory, f"{workload}.{suffix}")
    rc = cli.main([command, "--config", config, "--out", out])
    with open(out, "rb") as f:
        report = f.read()
    return {"command": command, "exit": rc,
            "sha256": hashlib.sha256(report).hexdigest(),
            "numbers": numbers(report.decode(), suffix)}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_report_matches_golden(workload, tmp_path):
    with open(GOLDEN) as f:
        goldens = json.load(f)
    golden = goldens["runs"][workload]
    got = record(workload, str(tmp_path))
    assert (got["command"], got["exit"]) == (golden["command"],
                                             golden["exit"])
    if build() == goldens["build"]:
        print(f"{workload}: comparing bytes")
        assert got["sha256"] == golden["sha256"]
        return
    print(f"{workload}: another numpy, scipy or CPU than the goldens': "
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
        runs = {w: record(w, tmp) for w in sorted(WORKLOADS)}
    with open(GOLDEN, "w") as f:
        json.dump({"build": build(), "runs": runs}, f, indent=1)
        f.write("\n")
