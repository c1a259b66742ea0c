"""Smoke tests: each script in scripts/ and python -m indematch run at a
tiny size and exit 0, and every function perfbench traces still exists
under its name."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


@pytest.mark.parametrize(
    "name, args, header",
    [
        ("census_table.py", ["-n", "4"], " n         total  indecomposable"),
        ("avoider_scan.py", ["-n", "4", "-k", "2", "3"], "k=2: tree bound 4, stated bound 256"),
    ],
)
def test_script_runs(name, args, header):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0].startswith(header)


@pytest.mark.parametrize(
    "args, message",
    [
        (["-n", "0"], "error: n 0 is below the minimum 1"),
        (["-n", "10"], "error: n=10 exceeds the soft cap of 9"),
        (["-n", "3", "-j", "0"], "error: jobs 0 is below the minimum 1"),
        (["-n", "3", "-j", "-5"], "error: jobs -5 is below the minimum 1"),
    ],
)
def test_census_table_refuses_bad_arguments_before_the_first_row(args, message):
    done = run_script("census_table.py", *args)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith(message)


def test_python_dash_m_runs_the_cli():
    done = run_python("-m", "indematch", "census", "-n", "3")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == " 3            15               4             4  yes"


def test_pattern_gallery_writes_svgs(tmp_path):
    done = run_script("pattern_gallery.py", "-k", "2", "-o", str(tmp_path))
    assert done.returncode == 0, done.stderr
    first = tmp_path / "interleaving_2.svg"
    assert done.stdout.splitlines()[0] == f"wrote {first}"
    assert first.read_text(encoding="utf-8").startswith("<svg")


def test_every_traced_function_resolves():
    # perfbench --trace 1 wraps these by name; a rename must fail here.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, fn_name in tracing.WRAPPED:
        module = importlib.import_module(f"indematch.{module_name}")
        assert callable(getattr(module, fn_name, None)), (module_name, fn_name)
    assert set(tracing.MODULES) >= {m for m, _ in tracing.WRAPPED}
    assert callable(importlib.import_module("indematch.patterns").Witness.verify)
