"""Import hygiene: every module imports alone, and cold commands import
only what they run.

A cold ``repro`` command pays for every module it imports before it does
any work.  numpy, asyncio and http are imported inside the functions
that use them, and package ``__init__``s re-export nothing eagerly.
These tests hold both rules in fresh interpreters.
"""

import json
import os
import socket
import subprocess
import sys

import pytest

import repro
from repro.workloads import get_workload

SRC = os.path.dirname(os.path.dirname(repro.__file__))
ROOT = os.path.dirname(SRC)

#: import each module named on the command line from a clean ``repro``
#: state; print one ``module: error`` line per failure
_IMPORT_EACH = """
import importlib, sys
for name in sys.argv[1:]:
    for key in [k for k in sys.modules if k.split(".")[0] == "repro"]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print("{}: {}: {}".format(name, type(exc).__name__, exc))
"""

#: run ``repro.cli.main`` on argv[2:], then write the exit code and the
#: loaded module names to the file argv[1]
_PROBE = """
import json, sys
out = sys.argv.pop(1)
from repro.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
with open(out, "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules)}, handle)
"""

#: what a cold fine-grain ``repro run`` must not load: its pair graphs
#: come from the closed form, and its fine-grain graphs decline the
#: vectorized engine tier, whose module is imported only for a run the
#: tier certifies.  Only a journaled run builds release edges, the fuzz
#: generator serves the tests and ``repro fuzz``, and a run validates no
#: document.
RUN_UNLOADED = (
    "numpy",
    "asyncio",
    "http.client",
    "repro.serve.server",
    "repro.models.fastengine",
    "repro.obs.journal",
    "repro.workloads.fuzzgen",
    "repro.schema",
)

#: the registry's suite modules; a cold run loads only its workload's
SUITES = tuple(
    "repro.workloads." + suite
    for suite in ("polybench", "rodinia", "shoc", "tango")
)

#: what the parser-only commands and the thin client must not load
THIN_UNLOADED = (
    "numpy",
    "asyncio",
    "repro.analysis.analyzer",
    "repro.analysis.fastpath",
    "repro.core.runtime",
    "repro.models",
)


def _python(*args, timeout=300):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=timeout,
    )


def _module_names():
    names = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        package = os.path.relpath(dirpath, SRC).replace(os.sep, ".")
        for filename in sorted(filenames):
            if filename == "__init__.py":
                names.append(package)
            elif filename.endswith(".py"):
                names.append("{}.{}".format(package, filename[:-3]))
    return names


def _probe(tmp_path, argv):
    out = tmp_path / "probe.json"
    result = _python("-c", _PROBE, str(out), *argv)
    assert out.exists(), result.stderr
    data = json.loads(out.read_text())
    return data["code"], data["modules"]


def _loaded(modules, names):
    return sorted(
        module for module in modules
        for name in names
        if module == name or module.startswith(name + ".")
    )


def _closed_port_url():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return "http://127.0.0.1:{}".format(port)


def test_every_module_imports_on_its_own():
    names = _module_names()
    assert "repro.cli" in names and "repro.analysis.fastpath" in names
    result = _python("-c", _IMPORT_EACH, *names, timeout=600)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "", "modules that fail alone:\n" + result.stdout


#: the cli-cold workloads of ``benchmarks/e2e``
@pytest.mark.parametrize(
    "workload", ["mvt", "bicg", "path", "hs", "fdtd-2d", "3mm", "lud"]
)
def test_cold_run_loads_no_numpy_or_daemon(workload, tmp_path):
    code, modules = _probe(
        tmp_path, ["run", workload, "--model", "consumer3", "--json", "-"]
    )
    assert code == 0
    own = "repro.workloads." + get_workload(workload).suite.lower()
    assert own in modules
    others = tuple(suite for suite in SUITES if suite != own)
    assert _loaded(modules, RUN_UNLOADED + others) == []


def test_device_serial_cold_run_loads_no_numpy(tmp_path):
    # the vectorized engine tier runs on the plan's own durations
    code, modules = _probe(
        tmp_path, ["run", "gaussian", "--model", "baseline", "--json", "-"]
    )
    assert code == 0
    assert "repro.models.fastengine" in modules
    unloaded = tuple(
        name for name in RUN_UNLOADED if name != "repro.models.fastengine"
    )
    assert _loaded(modules, unloaded) == []


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--version"], 0),
        (["list"], 0),
        (["list", "--json"], 0),
        (["client", "--url", "CLOSED", "health"], 2),
    ],
    ids=["version", "list", "list-json", "client"],
)
def test_thin_commands_load_no_pipeline(argv, code, tmp_path):
    argv = [_closed_port_url() if arg == "CLOSED" else arg for arg in argv]
    exit_code, modules = _probe(tmp_path, argv)
    assert exit_code == code
    unloaded = THIN_UNLOADED
    if argv[0] in ("--version", "client"):
        unloaded += ("repro.workloads",)
    assert _loaded(modules, unloaded) == []


@pytest.mark.parametrize(
    "argv",
    [["experiments", "tab1"], ["compare", "mvt", "--json", "-"]],
    ids=["experiments", "compare"],
)
def test_serial_commands_load_no_process_pool(argv, tmp_path):
    # both run on one shared context; only ``repro fuzz --jobs`` pools
    code, modules = _probe(tmp_path, argv)
    assert code == 0
    assert _loaded(modules, ("repro.parallel",)) == []


def _design_layout():
    """``(named files, named directories)`` of DESIGN.md's "Repository
    layout" block, as paths relative to the repository root."""
    with open(os.path.join(ROOT, "DESIGN.md")) as handle:
        text = handle.read()
    block = text.split("## Repository layout", 1)[1].split("```")[1]
    files, dirs, stack = set(), set(), []
    for line in block.splitlines():
        words = line.split()
        if not words:
            continue
        if words[0].endswith("/"):
            depth = (len(line) - len(line.lstrip())) // 2
            del stack[depth:]
            stack.append(words[0])
            dirs.add("".join(stack))
        files.update(
            "".join(stack) + word for word in words if word.endswith(".py")
        )
    return files, dirs


def test_design_layout_matches_the_tree():
    files, dirs = _design_layout()
    missing = sorted(
        path for path in files | dirs
        if not os.path.exists(os.path.join(ROOT, path))
    )
    assert missing == [], "DESIGN.md names paths that do not exist"
    unnamed = []
    for name in _module_names():
        path = "src/" + name.replace(".", "/")
        if os.path.isdir(os.path.join(SRC, name.replace(".", os.sep))):
            named = path + "/" in dirs
        else:
            named = path + ".py" in files
        if not named:
            unnamed.append(name)
    assert unnamed == [], "modules DESIGN.md does not name"
    examples = {
        "examples/" + name
        for name in os.listdir(os.path.join(ROOT, "examples"))
        if name.endswith(".py")
    }
    assert examples <= files, "examples DESIGN.md does not name"
