"""What the package's modules import.

numpy is the only third-party package the modules import: no module
imports scipy or requests, not even inside a function.  Nor does any
import multiprocessing, threading or concurrent.futures: `optim` alone
calls os.fork, at most once per fit, for its validation worker.
Importing the package does not load the HTTP stack either.  `HttpClient.complete`
imports `urllib.request` on its first request, so the offline commands
and replayed runs start without it.  A fresh interpreter is needed
because the test session itself may have loaded it already.

The hdtwin modules import each other in layers, exactly as LAYERS
declares: `dsl` imports none of them, `engine` only `dsl`; `optim`,
`agents`, `systems` and `baselines` only those two; `orchestrator` and
`cli` sit above them all.  No module reaches into another hdtwin
module's private names, and every public name of the package, and every
public function, class and method of its modules, has a user outside the
tests or a mention in a README code span: a name in prose does not
count, so a word such as "derivative" keeps no method of that name
alive.  Only `engine` reads and writes JSON files and CSV tables
(read_json, write_json, write_table), so no second writer of a format
grows back.

The benchmark looks hdtwin's functions and methods up by name: the
tracer wraps them by attribute, and the workloads call them through
their modules.  A rename in `src/` would break it without an error, so
every name it looks up must resolve, read from its source with no import
of the benchmark.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import hdtwin
from hdtwin import engine, optim, orchestrator

ROOT = Path(__file__).resolve().parent.parent

PACKAGE_MODULES = ("hdtwin", "hdtwin.cli", "hdtwin.orchestrator", "hdtwin.systems",
                   "hdtwin.baselines")
LAZY_MODULES = ("urllib.request", "http.client", "ssl")
DROPPED_PACKAGES = ("scipy", "requests")
# fit's validation worker is the one other process or thread hdtwin starts:
# a forked process on raw pipes, whose answers keep every bit
CONCURRENCY_PACKAGES = ("multiprocessing", "threading", "concurrent")

# the hdtwin modules each module imports, function bodies included
_BASE = {"dsl", "engine"}
LAYERS = {
    "__init__": {"dsl", "engine", "optim"},
    "dsl": set(),
    "engine": {"dsl"},
    "optim": _BASE,
    "agents": _BASE,
    "systems": _BASE,
    "baselines": _BASE,
    "orchestrator": _BASE | {"optim", "agents", "systems", "baselines"},
    "cli": _BASE | {"optim", "agents", "systems", "baselines", "orchestrator"},
}


def imported_packages(packages: tuple[str, ...]) -> list[str]:
    """Where a module imports one of packages, function bodies included."""
    found = []
    for path in sorted((ROOT / "src" / "hdtwin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] in packages]
    return found


def test_no_module_imports_scipy_or_requests():
    assert imported_packages(DROPPED_PACKAGES) == []


def test_only_optim_forks_and_no_module_starts_threads_or_process_pools():
    assert imported_packages(CONCURRENCY_PACKAGES) == []
    forks = []
    for path in sorted((ROOT / "src" / "hdtwin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):  # function bodies included
            if isinstance(node, ast.Attribute) and node.attr in ("fork", "forkpty"):
                forks.append(f"{path.stem}.{ast.unparse(node)}")
            elif isinstance(node, ast.alias) and node.name in ("fork", "forkpty"):
                forks.append(f"{path.stem}: imports {node.name}")
    assert forks == ["optim.os.fork"]


def test_importing_the_package_loads_no_http_stack():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = (
        "import importlib, sys\n"
        f"for name in {PACKAGE_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(','.join(m for m in {LAZY_MODULES!r} if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"loaded at import: {proc.stdout.strip()}"



def hdtwin_imports(path: Path) -> set[str]:
    """The hdtwin modules a source file imports, function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, f"{path.name}:{node.lineno}: relative import"
            module = node.module or ""
            names = ([f"{module}.{alias.name}" for alias in node.names]
                     if module == "hdtwin" else [module])
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("hdtwin.")}
    return found


def test_modules_import_each_other_only_as_layered():
    paths = sorted((ROOT / "src" / "hdtwin").glob("*.py"))
    assert {p.stem: hdtwin_imports(p) for p in paths} == LAYERS


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted((ROOT / "src" / "hdtwin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):  # function bodies included
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("hdtwin")):
                found += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def referenced_names(path: Path) -> set[str]:
    """The names a module loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def public_definitions(path: Path) -> list[tuple[str, str]]:
    """(where, name) of a module's public functions and classes and of the
    public methods of its classes, where is module.name or module.Class.name."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            found.append((f"{path.stem}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            found += [(f"{path.stem}.{node.name}.{f.name}", f.name) for f in node.body
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return found


# public definitions with no user a name scan can see, and why each stays
UNSEEN_USERS = {
    # bench/tracing.py wraps it by its name, a string, for the policy span;
    # it can go once that span moves (ROADMAP item 5)
    "systems.sample_cancer_actions",
}


# a README code span or fenced block: a run of backticks, its text, and
# the next run of as many backticks
CODE_SPAN = re.compile(r"(?<!`)(`+)(?!`)(.+?)(?<!`)\1(?!`)", re.S)


def test_every_exported_name_is_used_outside_the_tests_or_documented():
    modules = sorted((ROOT / "src" / "hdtwin").glob("*.py"))
    users = [p for p in modules if p.name != "__init__.py"]
    users += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    used = set().union(*map(referenced_names, users))
    code = " ".join(m[2] for m in CODE_SPAN.finditer((ROOT / "README.md").read_text()))
    public = [(f"hdtwin.{name}", name) for name in hdtwin.__all__]
    public += [found for path in modules for found in public_definitions(path)]
    unused = {where for where, name in public
              if name not in used and not re.search(rf"\b{name}\b", code)}
    assert unused == UNSEEN_USERS


def test_only_the_engine_reads_or_writes_json_files_and_csv_tables():
    found = []
    for path in sorted((ROOT / "src" / "hdtwin").glob("*.py")):
        if path.name == "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and (node.value.id, node.attr) in
                    {("json", "load"), ("json", "dump"), ("csv", "writer")}):
                found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert found == []


# the hdtwin modules bench/workloads.py calls through
BENCH_MODULES = ("dsl", "engine", "optim", "orchestrator", "systems")


def bench_names() -> set[tuple[str, str]]:
    """(owner, name) of each hdtwin name the benchmark looks up: the owner
    and attribute of every (span, owner, attribute, ...) tuple in
    bench/tracing.py's install, and every attribute of a BENCH_MODULES
    module that bench/workloads.py reads.  An owner is a module or
    module.Class."""
    found = set()
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    install = next(node for node in tracing.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    for node in ast.walk(install):
        if isinstance(node, ast.Tuple) and len(node.elts) == 5 and all(
                isinstance(node.elts[i], ast.Constant) for i in (0, 2)):
            found.add((ast.unparse(node.elts[1]), node.elts[2].value))
    for node in ast.walk(ast.parse((ROOT / "bench" / "workloads.py").read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in BENCH_MODULES):
            found.add((node.value.id, node.attr))
    return found


def test_every_name_the_bench_looks_up_resolves():
    names = bench_names()
    assert {("engine", "rollout_mse"), ("engine.Evaluator", "derivatives"),
            ("optim", "fit"), ("systems", "generate_dataset")} <= names
    missing = []
    for owner, name in sorted(names):
        module, *classes = owner.split(".")
        found = importlib.import_module(f"hdtwin.{module}")
        for cls in classes:
            found = getattr(found, cls, None)
        # install wraps a method found in its class's own namespace
        if not (name in vars(found) if isinstance(found, type) else hasattr(found, name)):
            missing.append(f"{owner}.{name}")
    assert missing == []
    # the tracer tells fit's validation pass and evolve's test scoring by
    # these bindings of the engine's functions
    assert optim.per_component_mse is engine.per_component_mse
    assert orchestrator.evaluate_test_metrics is engine.evaluate_test_metrics
