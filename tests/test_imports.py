"""Each process imports what it runs.

``import repro``, the serve front end answering from the cache and
``repro cache info`` must load neither numpy nor the VM nor the
streaming engine; each check runs in a fresh interpreter.  The cache
keys' code digest reads module sources from their files, so it must
equal the digest over what ``inspect.getsource`` reads.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import subprocess
import sys

import pytest

from repro.exp.config import ExperimentConfig
from repro.exp.runner import run_profile
from repro.vm import tracecache

HEAVY = ("numpy", "repro.vm.machine", "repro.dataflow.streaming")


def _heavy_after(code: str) -> list[str]:
    """The :data:`HEAVY` modules loaded after running ``code`` in a
    fresh interpreter (which inherits this process's environment)."""
    script = (f"{code}\nimport json, sys\n"
              f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_repro_is_lean():
    assert _heavy_after("import repro") == []


def test_import_server_is_lean():
    assert _heavy_after("import repro.exp.service.server") == []


def test_profile_hit_is_lean(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    config = ExperimentConfig(max_instructions=600, workloads=("li",))
    run_profile("li", config)
    assert _heavy_after(
        "from repro.exp.config import ExperimentConfig\n"
        "from repro.exp.service.server import ServiceFrontend\n"
        "frontend = ServiceFrontend(ExperimentConfig(max_instructions=600))\n"
        "for _ in range(2):\n"
        "    status, body = frontend.dispatch('/profile', {'workload': 'li'})\n"
        "    assert status == 200 and body.startswith(b'{\"source\": \"cache\"')"
    ) == []


def test_cache_info_is_lean(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert _heavy_after("from repro import cli\n"
                        "assert cli.main(['cache', 'info']) == 0") == []


@pytest.mark.parametrize("modules", ["TRACE_MODULES", "ANALYSIS_MODULES",
                                     "FIG9_MODULES"])
def test_digest_reads_what_inspect_reads(modules):
    names = getattr(tracecache, modules)
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode())
        h.update(inspect.getsource(importlib.import_module(name)).encode())
    assert tracecache._modules_digest(names) == h.hexdigest()


def test_trace_modules_cover_the_isa():
    """Every ISA module the machine and the assembler load defines what
    a trace is, so editing one must re-key every trace entry."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, repro.vm.machine, repro.vm.assembler\n"
         "print(json.dumps(sorted(m for m in sys.modules"
         " if m.startswith('repro.isa.'))))"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "repro.isa.table" in loaded
    assert set(loaded) - set(tracecache.TRACE_MODULES) == set()
