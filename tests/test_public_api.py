"""The documented top-level API surface must exist and be importable."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro


def test_version():
    assert repro.__version__


@pytest.mark.parametrize(
    "name",
    ["Agent", "register_trusted_agent_class", "Itinerary", "Testbed",
     "AgentServer", "Rights", "SecurityPolicy", "PolicyRule", "URN",
     "ResourceImpl", "AccessProtocol", "export", "ReproError",
     "SecurityException"],
)
def test_top_level_exports(name):
    assert getattr(repro, name) is not None


def test_unknown_attribute():
    with pytest.raises(AttributeError):
        repro.NotAThing


def test_lazy_exports_match_canonical():
    from repro.server.testbed import Testbed

    assert repro.Testbed is Testbed


def test_readme_quickstart_runs():
    """The exact code shown in README.md must work."""
    from repro import (
        Agent,
        PolicyRule,
        Rights,
        SecurityPolicy,
        Testbed,
        URN,
        register_trusted_agent_class,
    )
    from repro.apps.buffer import Buffer

    bed = Testbed(n_servers=1)
    mailbox = Buffer(
        URN.parse("urn:resource:site0.net/mailbox"),
        URN.parse("urn:principal:site0.net/postmaster"),
        SecurityPolicy(rules=[
            PolicyRule("any", "*", Rights.of("Buffer.put", "Buffer.size")),
        ]),
        capacity=16,
    )
    bed.home.install_resource(mailbox)

    @register_trusted_agent_class
    class ReadmeGreeter(Agent):
        def run(self):
            proxy = self.host.get_resource("urn:resource:site0.net/mailbox")
            proxy.put("hello")
            self.complete()

    bed.launch(ReadmeGreeter(), rights=Rights.of("Buffer.*"))
    bed.run()
    assert mailbox.get() == "hello"


@pytest.mark.parametrize(
    "module", ["repro.sandbox", "repro.sandbox.codecache", "repro.core"]
)
def test_package_imports_first_in_a_fresh_interpreter(module):
    """No import cycle between the sandbox and core, whichever comes first."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
