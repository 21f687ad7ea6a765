"""Layering: the serving stack builds tenants without the eval package.

``repro.fleet`` and ``repro.serve`` sit below ``repro.eval``; the demo
model and its tenant factory live in ``repro.soc.demo``.  The check
runs in a fresh interpreter so no other test's imports can mask a
regression.
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PROBE = """
import sys

import repro.fleet
import repro.serve
from repro.fleet import demo_factory

[deployment] = demo_factory(["t0"])
assert deployment.name == "t0"
leaked = sorted(
    name for name in sys.modules
    if name == "repro.eval" or name.startswith("repro.eval.")
)
assert not leaked, leaked
"""


def test_fleet_and_serve_build_tenants_without_repro_eval():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
