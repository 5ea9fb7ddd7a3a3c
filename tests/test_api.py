"""The public surface: every public name in src/navsynth is used there or exported, and
every command flag is read by its command."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import json
import math
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import navsynth
from navsynth.cli import build_parser
from test_golden import GOLDEN, RECORDED_NUMPY

PACKAGE = pathlib.Path(navsynth.__file__).parent
README = PACKAGE.parents[1] / "README.md"
TRACER = PACKAGE.parents[1] / "perfbench" / "spans.py"


def public_definitions():
    """(module, qualified name) of each public top-level def or class and public method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            yield path.stem, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        yield path.stem, "%s.%s" % (node.name, item.name)


def referenced_names():
    """Every name that src/navsynth loads, as a variable or as an attribute."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def library_names():
    """Every word in the code blocks and `code` spans of the README's Library section."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    section = section[:section.find("\n## ", 1)]
    blocks = re.findall(r"```.*?```", section, re.DOTALL)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", section, flags=re.DOTALL))
    return set(re.findall(r"\w+", " ".join(blocks + spans)))


def test_every_public_name_is_used_or_documented():
    # used by src/navsynth, or exported and so documented (test_exports_are_library_names); a
    # README mention alone keeps no name: what only the tests call lives in tests/
    known = referenced_names() | set(navsynth.__all__)
    unused = ["%s.%s" % (module, name) for module, name in public_definitions()
              if name.rsplit(".", 1)[-1] not in known]
    assert unused == []


def test_exports_are_library_names():
    assert set(navsynth.__all__) <= library_names()
    assert all(hasattr(navsynth, name) for name in navsynth.__all__)


def args_read(func):
    """The `args.<name>` attributes that a `cmd_*` function loads, plus `out_dir` where it
    calls `_out(args, ...)`."""
    read = set()
    for node in ast.walk(ast.parse(inspect.getsource(func))):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == "args"):
            read.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_out":
            read.add("out_dir")
    return read


def test_every_command_flag_is_read():
    [commands] = [action.choices for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    unread = []
    for name, parser in sorted(commands.items()):
        read = args_read(parser.get_default("func"))
        unread += ["%s %s" % (name, "/".join(action.option_strings))
                   for action in parser._actions
                   if action.dest not in ("help", "config") and action.dest not in read]
    assert unread == []


def test_cli_uses_no_private_name_of_another_module():
    # the commands call readers and analyses through the modules' public names only
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module is None
               for alias in node.names}
    private = ["%s.%s" % (node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names
               if alias.name[0] == "_" and alias.name[:2] != "__"]
    private += ["%s.%s" % (node.value.id, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr[0] == "_"]
    assert private == []


def opens(call, to_write):
    """Whether an `open` or `gzip.open` call can open a file to write (`to_write`) or to read:
    a mode that is a literal with "w", "a" or "x" writes, and any other reads."""
    name = getattr(call.func, "id", getattr(call.func, "attr", None))
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (keyword.value for keyword in call.keywords if keyword.arg == "mode"), None)
    return to_write == (isinstance(mode, ast.Constant) and bool(set(mode.value) & set("wax")))


def opening_calls(exempt_functions, to_write):
    """"module.py:line" of each call that opens a file, to write or to read, outside the
    (module, function) pairs given."""
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {id(node) for function in tree.body if isinstance(function, ast.FunctionDef)
                  and (path.stem, function.name) in exempt_functions
                  for node in ast.walk(function)}
        calls += ["%s.py:%d" % (path.stem, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in exempt
                  and opens(node, to_write)]
    return calls


def test_only_chunks_reads_a_file():
    # every input goes through `graph._chunks`
    assert opening_calls({("graph", "_chunks")}, False) == []


def test_only_one_function_writes_a_file():
    # every output goes through `graph.write_rows`, except `ingest`'s binary `np.savez` caches
    assert opening_calls({("graph", "write_rows")}, True) == []


def test_only_lookup_looks_keys_up():
    # `graph._lookup` is the one sorted-key lookup; `np.setdiff1d` of a set of ids stays
    names = ["%s.py:%d" % (path.stem, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if getattr(node, "attr", getattr(node, "id", None)) in ("isin", "in1d")]
    assert names == []


def test_import_loads_no_scipy():
    code = ("import sys; sys.path.insert(0, %r); import navsynth; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])" % str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_dependencies_are_the_third_party_imports():
    # pyproject.toml lists what src/navsynth imports beyond the stdlib, and nothing more
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    listed = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in
              pyproject["project"]["dependencies"]}
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"__future__"}
    assert third_party == listed


def test_benchmark_tracer_targets_resolve():
    # the benchmark's tracer wraps each target at `owner.__dict__[attr]`; a renamed or deleted
    # function would otherwise fail only when the benchmark runs
    spec = importlib.util.spec_from_file_location("navsynth_bench_spans", TRACER)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = []
    for module, attr, *_ in spans.TARGETS + spans.AGGREGATED:
        owner = importlib.import_module(module)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        if not callable(getattr(owner, "__dict__", {}).get(name)):
            unresolved.append("%s.%s" % (module, attr))
    assert unresolved == []


# the all-commands pipeline of test_golden, run under the benchmark's tracer as
# perfbench/pipeline.py installs it
TRACED_PIPELINE = """
import json, pathlib, sys, tempfile
sys.path[:0] = sys.argv[2:]
import navsynth.cli, spans, test_golden
tracer = spans.Tracer()
installed = tracer.install()
with tempfile.TemporaryDirectory() as tmp:
    digests = test_golden.output_digests(pathlib.Path(tmp))
with open(sys.argv[1], "w") as f:
    json.dump({"installed": installed, "after": tracer.self_test(), "digests": digests,
               "spans": sorted({span[0] for span in tracer.spans}),
               "aggregated": tracer.aggregated, "counts": tracer.counts}, f)
"""


def test_benchmark_tracer_counts_the_golden_pipeline(tmp_path):
    # a counter reads program objects (`corpus.sequences`, `len(res.flagged)`, ...), so a type
    # change can break the traced benchmark where only its own run would show it
    paths = [str(PACKAGE.parent), str(pathlib.Path(__file__).parent), str(TRACER.parent)]
    result = tmp_path / "traced.json"
    proc = subprocess.run([sys.executable, "-c", TRACED_PIPELINE, str(result), *paths],
                          capture_output=True, text=True, timeout=600, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr  # a counter that raises fails its command
    traced = json.loads(result.read_text())
    assert traced["installed"] == [] and traced["after"] == []
    spans = importlib.util.spec_from_file_location("navsynth_bench_spans", TRACER)
    module = importlib.util.module_from_spec(spans)
    spans.loader.exec_module(module)
    # the pipeline runs every command, so it reaches every target; "bench.count" times counters
    assert sorted({name for _, _, name, _ in module.TARGETS} | {"bench.count"}) == traced["spans"]
    assert all(traced["aggregated"][name][0] > 0 for _, _, name in module.AGGREGATED)
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in traced["counts"].values())
    if np.__version__.startswith(RECORDED_NUMPY + "."):
        assert traced["digests"] == GOLDEN  # tracing changes no output
