"""The benchmark's layer tracer: a traced command prints the same report
and exit code as the plain one, and every layer it wraps is measured.

``perfbench/layer_trace.py`` wraps public functions by name, so a renamed
or deleted target shows up only as an absent metric, and its pivot
statistics read the pivot row that ``SparseRref.add_row`` leaves, as
kernel pairs, in its argument.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uqsl2

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "layer_trace.py"
SRC = Path(uqsl2.__file__).resolve().parent.parent


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("args", [
    ("verify", "--p", "2", "--relations", "prop2,eq1", "--format", "json"),
    ("hom", "--p", "2"),
], ids=["verify", "hom"])
def test_traced_run_matches_plain_run(args, tmp_path):
    prefix = tmp_path / "t"
    traced = _run(str(TRACER), str(prefix), "--", *args)
    plain = _run("-m", "uqsl2.cli_report", *args)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    summary = json.loads(Path(f"{prefix}.summary.json").read_text(encoding="utf-8"))
    assert summary["absent"] == []
    assert summary["counts"]["elim.rank"] > 0
