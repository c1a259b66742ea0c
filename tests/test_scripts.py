"""Smoke tests: each script in scripts/ and python -m indematch run at a
tiny size and exit 0, and every function perfbench traces still exists
under its name."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import small_indecomposables

ROOT = Path(__file__).resolve().parent.parent


def python_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=python_env(),
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
        (["-n", "10"], "error: n 10 exceeds the cap 9"),
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


def test_a_closed_stdout_ends_the_cli_quietly():
    # As `indematch canonical interleaving -k 200000 | head -c 10` does.
    args = [sys.executable, "-m", "indematch", "canonical", "interleaving", "-k", "200000"]
    with subprocess.Popen(
        args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=python_env()
    ) as proc:
        assert proc.stdout.read(10) == b"1-200001 2"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_pattern_gallery_writes_svgs(tmp_path):
    done = run_script("pattern_gallery.py", "-k", "2", "-o", str(tmp_path))
    assert done.returncode == 0, done.stderr
    first = tmp_path / "interleaving_2.svg"
    assert done.stdout.splitlines()[0] == f"wrote {first}"
    assert first.read_text(encoding="utf-8").startswith("<svg")


@pytest.mark.parametrize(
    "args, message",
    [
        (["-k", "1"], "error: broken nesting size 1 is below the minimum 2"),
        (["--matching", "1-2 3-4"], "error: the matching is decomposable"),
        (["--matching", "1-x"], "error: parse error at position 1: expected a-b, got '1-x'"),
        (["-k", "1000000000"], "error: pattern size 1000000000 exceeds the cap 1000000"),
    ],
)
def test_pattern_gallery_reports_bad_input_in_one_line(tmp_path, args, message):
    out_dir = tmp_path / "gallery"
    done = run_script("pattern_gallery.py", "-k", "2", "-o", str(out_dir), *args)
    assert done.returncode == 1
    assert (done.stdout, done.stderr) == ("", message + "\n")
    assert not out_dir.exists()


def test_census_table_names_the_flag_past_the_cap():
    done = run_script("census_table.py", "-n", "10")
    assert done.returncode == 1
    assert "--allow-large" in done.stderr


def test_runtime_imports_only_the_standard_library():
    package = ROOT / "src" / "indematch"
    siblings = {p.stem for p in package.glob("*.py")}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            elif isinstance(node, ast.ImportFrom):
                # A relative import stays inside the package, which is flat.
                assert node.level == 1, (path.name, node.lineno)
                assert node.module is None or node.module in siblings, (path.name, node.lineno)
                continue
            else:
                continue
            for top in tops:
                assert top in sys.stdlib_module_names, (path.name, node.lineno, top)


def test_importing_the_cli_loads_no_process_pool():
    # Only a run with more than one worker opens a pool; a serial one never
    # pays for importing it.
    code = (
        "import sys, indematch, indematch.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_no_function_calls_itself_by_name():
    # Searches and streams keep their own stacks, so no call depth grows with
    # the input: a function (or method, through self) never calls itself.
    package = ROOT / "src" / "indematch"
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                    name = callee.attr if callee.value.id in ("self", "cls") else None
                else:
                    name = getattr(callee, "id", None)
                assert name != fn.name, (path.name, fn.name, node.lineno)


# One home per rule: each row is a rule, an act, the names it covers, and
# the modules or module.functions that may do it.  core._host_edges reads
# edge arguments, pins._deepest decides the pin tree and build_pin_tree
# lists it, errors._at_least reads sizes, and errors._is_int tests for an
# int (two fast paths in core inline their own, only to route input).
ONE_HOME = (
    ("edge arguments", "call", ("as_edge", "has_edge"), ("core",)),
    ("edge arguments", "raise", ("UnknownEdge",), ("core",)),
    ("pin tree", "call", ("_pin_nodes",), ("pins._deepest", "pins.build_pin_tree")),
    ("size errors", "raise", ("SizeTooSmall", "SizeCapExceeded"), ("errors",)),
    ("int test", "type test", ("int", "bool"), ("errors._is_int", "core._host_edges", "core.make_matching")),
)


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _acts(node):
    """node's (act, name) pairs: a call, a raise, or a type test of int or
    bool (isinstance(..., bool), bool in ..., type(...) is [not] int)."""
    if isinstance(node, ast.Call):
        yield "call", _name(node.func)
        if _name(node.func) == "isinstance" and "bool" in map(_name, ast.walk(node.args[-1])):
            yield "type test", "bool"
    elif isinstance(node, ast.Raise) and node.exc is not None:
        yield "raise", _name(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
    elif isinstance(node, ast.Compare):
        if _name(node.left) == "bool" and isinstance(node.ops[0], (ast.In, ast.NotIn)):
            yield "type test", "bool"
        if isinstance(node.left, ast.Call) and _name(node.left.func) == "type":
            yield from (("type test", _name(right)) for right in node.comparators)


def _assert_one_home(rule):
    homes = {(act, name): places for r, act, names, places in ONE_HOME if r == rule for name in names}
    for path in sorted((ROOT / "src" / "indematch").glob("*.py")):
        # place: module.Class.function of the innermost enclosing def.
        todo = [(path.stem, ast.parse(path.read_text(encoding="utf-8")))]
        while todo:
            place, node = todo.pop()
            for act in _acts(node):
                owned = any(f"{place}.".startswith(f"{h}.") for h in homes.get(act, (place,)))
                assert owned, (place, node.lineno, act)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                place = f"{place}.{node.name}"
            todo.extend((place, child) for child in ast.iter_child_nodes(node))


def test_only_core_reads_edge_arguments():
    _assert_one_home("edge arguments")


def test_only_pins_walks_the_pin_tree():
    _assert_one_home("pin tree")


def test_only_errors_raises_size_errors():
    _assert_one_home("size errors")


def test_only_is_int_and_two_fast_paths_test_for_an_int():
    _assert_one_home("int test")


def _called(node, name):
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def test_only_core_folds_crossing_components():
    # core._components is the one fold of the open crossing components, a
    # linked stack of (lo, hi, below) triples (find_intervals runs its own
    # copy in core): no other module pushes such a triple, walks one down in
    # a merge loop, or unpacks a stack that it passes to or gets from
    # _components.
    package = ROOT / "src" / "indematch"
    for path in sorted(package.glob("*.py")):
        if path.name == "core.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(ast.walk(fn))
            folds = [node for node in nodes if _called(node, "_components")]
            stacks = {arg.id for call in folds for arg in call.args if isinstance(arg, ast.Name)}
            stacks |= {
                t.id
                for node in nodes
                if isinstance(node, ast.Assign) and any(c in folds for c in ast.walk(node.value))
                for t in node.targets
                if isinstance(t, ast.Name)
            }
            for node in nodes:
                if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                    continue
                (target,), value = node.targets, node.value
                names = [e.id for e in getattr(target, "elts", ()) if isinstance(e, ast.Name)]
                # stack = (v, p, stack) pushes; lo, top, below = below walks down.
                pushed = isinstance(value, ast.Tuple) and len(value.elts) == 3
                pushed = pushed and ast.dump(value.elts[-1]) == ast.dump(target)
                unpacked = len(names) == 3 and isinstance(value, ast.Name)
                unpacked = unpacked and (value.id in names or value.id in stacks)
                assert not (pushed or unpacked), (path.name, node.lineno)


def test_every_workload_sets_up_with_a_clean_warm_up(monkeypatch):
    # Setup imports the package, generates the inputs and runs one checked
    # warm-up op; a change that breaks a workload's output must fail here.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    assert workloads.NAMES == ("census", "exhaustive", "certify", "chains")
    for name in workloads.NAMES:
        _, _, problems, _ = workloads.setup(name, 1)
        assert problems == [], name


@pytest.mark.parametrize("workload", ["census", "exhaustive", "certify", "chains"])
def test_bench_runs_a_short_workload_correctly(workload):
    # The benchmark's own output checks, end to end, at one second: census
    # runs its one census(8) operation, the stream's frozen n = 8 counts.
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0, summary


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


def _traced(call):
    """(tracer, result) of call run under perfbench's Tracer."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return tracer, call()
    finally:
        tracer.uninstall()


def test_traced_verify_sweeps_each_host_once():
    # The counts perfbench --trace 1 reads.  verify trusts the stream's
    # decision: no sweep, no public witness and no full pin tree per host.
    # The public witness sweeps each host once and builds no full tree.
    ramsey = importlib.import_module("indematch.ramsey")
    tracer, report = _traced(lambda: ramsey.verify_theorem(5, 3))
    assert report.checked == 281
    for name in ("core.is_indecomposable", "ramsey.witness", "pins.build_pin_tree"):
        assert tracer.calls[name] == 0, name
    hosts = list(small_indecomposables(5))
    assert len(hosts) == 281
    tracer, _ = _traced(lambda: [ramsey.witness(m, 3) for m in hosts])
    assert tracer.calls["core.is_indecomposable"] == 281
    assert tracer.calls["pins.build_pin_tree"] == 0


def test_traced_pattern_stage_reads_each_edge_once(monkeypatch):
    # In the avoider scan, max_pattern reads the crossers of each edge of
    # the host once (n <= 5 here), as int pairs through core._crossers
    # rather than the public crossers, and runs no longest_monotone.
    enumeration = importlib.import_module("indematch.enumeration")
    patterns = importlib.import_module("indematch.patterns")
    reads = []
    read = patterns._crossers

    def counted(partner, left, right):
        reads.append((left, right))
        return read(partner, left, right)

    monkeypatch.setattr(patterns, "_crossers", counted)
    tracer, _ = _traced(lambda: enumeration.scan_avoiders(5, 4))
    pattern_calls = tracer.calls["patterns.max_pattern"]
    assert pattern_calls > 0
    assert tracer.calls["patterns.crossers"] == 0
    assert 0 < len(reads) <= 5 * pattern_calls
    assert tracer.edges["patterns.max_pattern", "patterns.longest_monotone"] == 0
