"""Import-graph contract of the CLI and the package namespaces.

Every grid cell of a campaign is a short job, so each process's start-up
cost is paid again and again.  The read-only CLI paths (``campaign
report``/``export``/``status`` and ``campaign run --dry-run``) must
therefore not import the simulator or the process pool, and nothing may
import numpy.  Each check runs in a fresh interpreter, because this test
session has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SMOKE = str(ROOT / "examples" / "campaign_smoke.toml")

# Modules the read-only paths must leave unloaded.
SIMULATOR_MODULES = (
    "numpy",
    "repro.sim.system",
    "repro.sim.runner",
    "repro.dram.controller",
    "repro.cpu.core",
    "repro.experiments.aggregate",
    "multiprocessing",
)

LAZY_PACKAGES = (
    "repro",
    "repro.campaign",
    "repro.core",
    "repro.cpu",
    "repro.dram",
    "repro.experiments",
    "repro.guard",
    "repro.obs",
    "repro.sim",
    "repro.traces",
    "repro.workloads",
)

# Runs the CLI, then prints which of the named modules got imported.
_CLI_PROBE = """
import json, sys
from repro.__main__ import main
status = main(sys.argv[2:])
print(json.dumps({"status": status,
                  "loaded": [m for m in json.loads(sys.argv[1]) if m in sys.modules]}))
"""


def _python(tmp_path: Path, *args: str) -> str:
    env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_CAMPAIGN_DB"] = str(tmp_path / "store.sqlite")
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli(tmp_path: Path, *argv: str) -> list[str]:
    """Modules of :data:`SIMULATOR_MODULES` loaded by ``repro ARGV``."""
    out = _python(tmp_path, "-c", _CLI_PROBE, json.dumps(SIMULATOR_MODULES), *argv)
    probe = json.loads(out.splitlines()[-1])
    assert probe["status"] == 0, out
    return probe["loaded"]


@pytest.fixture(scope="module")
def smoke_store(tmp_path_factory):
    """A store holding the smoke campaign, run on the fast backend; the
    modules that run loaded."""
    tmp_path = tmp_path_factory.mktemp("import-graph")
    loaded = _cli(tmp_path, "--backend", "fast", "campaign", "run", SMOKE)
    return tmp_path, loaded


def test_dry_run_imports_no_simulator(tmp_path):
    assert _cli(tmp_path, "campaign", "run", SMOKE, "--dry-run") == []


@pytest.mark.parametrize(
    "argv",
    [
        ("campaign", "report", SMOKE),
        ("campaign", "export", SMOKE),
        ("campaign", "status", SMOKE),
    ],
    ids=["report", "export", "status"],
)
def test_read_only_campaign_commands_import_no_simulator(smoke_store, argv):
    tmp_path, _loaded = smoke_store
    assert _cli(tmp_path, *argv) == []


def test_fast_backend_run_imports_no_numpy(smoke_store):
    _tmp_path, loaded = smoke_store
    assert "repro.sim.system" in loaded  # it did simulate
    assert "numpy" not in loaded


def test_every_public_name_resolves(tmp_path):
    """``__all__`` of every lazily re-exporting package resolves, both by
    attribute and through ``from package import *``."""
    script = f"""
import importlib
for package in {LAZY_PACKAGES!r}:
    module = importlib.import_module(package)
    assert module.__all__, package
    for name in module.__all__:
        getattr(module, name)
    namespace = {{}}
    exec(f"from {{package}} import *", namespace)
    missing = set(module.__all__) - set(namespace)
    assert not missing, (package, missing)
    assert set(module.__all__) <= set(dir(module)), package
print("ok")
"""
    assert _python(tmp_path, "-c", script).strip() == "ok"


def test_unknown_package_attribute_raises_attribute_error():
    import repro.campaign

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.campaign.nope  # noqa: B018


def test_case_study_choices_match_the_experiments():
    """The CLI lists case studies without importing the experiment module;
    its alias table must name exactly the experiments' case studies."""
    from repro.__main__ import _CASE_ALIASES
    from repro.experiments.case_studies import CASE_STUDIES

    assert sorted(_CASE_ALIASES.values()) == sorted(CASE_STUDIES)
