"""What a command loads before its first cell, and the lazy namespaces.

Every check runs in a fresh interpreter: this process has imported
most of the package long before these tests run, which would hide both
a heavy import edge and a public name that resolves wrongly on first
use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Every package whose public names resolve on first use.
LAZY_PACKAGES = (
    "repro",
    "repro.api",
    "repro.branch",
    "repro.cache",
    "repro.core",
    "repro.dispatch",
    "repro.engine",
    "repro.experiments",
    "repro.obs",
    "repro.ooo",
    "repro.resilience",
    "repro.robust",
    "repro.service",
    "repro.tech",
    "repro.tlb",
    "repro.workloads",
)


def fresh(code: str, *args: str) -> str:
    """Stdout of ``code`` run by a new interpreter importing this ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_cli_api_and_service_start_without_numpy():
    # The service's cold start plus what every engine and every CLI
    # invocation does first: fingerprint the technology, build the parser.
    code = (
        "import json, sys\n"
        "import repro.cli, repro.api, repro.service\n"
        "from repro.engine.cache import technology_fingerprint\n"
        "technology_fingerprint()\n"
        "repro.cli.build_parser()\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = json.loads(fresh(code))
    assert "numpy" not in loaded
    # The timing models and the entry modules; 95 before the lazy
    # namespaces.  A jump here means an import edge pulls in a simulator.
    assert len([m for m in loaded if m.split(".")[0] == "repro"]) <= 30


def test_a_remote_query_loads_no_engine_and_no_numpy():
    from repro.engine.engine import ExperimentEngine
    from repro.service.server import ServiceConfig, ServiceThread

    code = (
        "import json, sys\n"
        "from repro.cli import main\n"
        "assert main(['query', 'tlb', 'compress', '--url', sys.argv[1]]) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    with ServiceThread(ExperimentEngine(), ServiceConfig(port=0)) as service:
        out = fresh(code, service.url)
    assert "best configuration" in out
    loaded = json.loads(out.splitlines()[-1])
    assert "numpy" not in loaded
    assert "repro.engine.engine" not in loaded


_CHECK_PUBLIC_NAMES = """
import importlib, sys
package = sys.argv[1]
pkg = importlib.import_module(package)
# Importing a package imports none of the modules its table names.
eager = {"repro._lazy", "repro.obs.metrics"}
loaded = [m for m in sys.modules if m.startswith(package + ".") and m not in eager]
assert not loaded, f"importing {package} loaded {loaded}"
listed = dir(pkg)
for name in pkg.__all__:
    assert name in listed, f"dir({package}) lacks {name}"
    value = getattr(pkg, name)
    home = getattr(value, "__module__", None)
    if getattr(value, "__name__", None) == name and home in sys.modules:
        owners = [sys.modules[home]]
    else:  # a constant: the submodules holding this very object
        owners = [
            m for key, m in list(sys.modules.items())
            if key.startswith(package + ".") and vars(m).get(name) is value
        ]
        if name == "__version__":
            owners = [pkg]
    assert owners, f"{package}.{name} has no defining module"
    assert all(vars(m)[name] is value for m in owners), f"{package}.{name}"
assert not hasattr(pkg, "no_such_name")
try:
    exec(f"from {package} import no_such_name")
except ImportError:
    pass
else:
    raise AssertionError(f"from {package} import no_such_name succeeded")
print("ok")
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_public_names_resolve_to_their_defining_modules(package):
    assert fresh(_CHECK_PUBLIC_NAMES, package).strip() == "ok"


def test_obs_metrics_stays_the_function_once_its_submodule_loads():
    # `repro.obs.metrics` names both a submodule and the function the
    # package re-exports; `--metrics` calls the function.
    code = (
        "import sys\n"
        "import repro.obs.metrics\n"
        "from repro.obs import metrics\n"
        "print(metrics is sys.modules['repro.obs.metrics'].metrics)\n"
    )
    assert fresh(code).strip() == "True"
