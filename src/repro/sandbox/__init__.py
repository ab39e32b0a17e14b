"""The Java-security-model analogue (section 3.2 → section 5.3).

Four mechanisms, mirroring the three Java components the paper builds on
plus the thread-group domain identification of section 5.3:

- :mod:`repro.sandbox.verifier` — AST-level verification of shipped agent
  source (the byte-code verifier analogue): rejects code that could reach
  outside the type/encapsulation model before it ever runs.
- :mod:`repro.sandbox.namespace` — per-agent namespaces with
  impostor-class rejection (the class-loader analogue): privileged names
  always resolve to the server's trusted classes, and one agent's code
  can never be seen or shadowed by another's.
- :mod:`repro.sandbox.codecache` — verify once, compile once: each
  server keeps the code it accepted, keyed by source digest and policy,
  and every namespace executes it into its own globals.
- :mod:`repro.sandbox.threadgroup` — thread groups identify protection
  domains; the *current* group is derived from execution context, never
  from caller-supplied arguments.
- :mod:`repro.sandbox.security_manager` — the reference monitor: every
  privileged operation funnels through ``check``, which decides based on
  the current domain and writes an audit record.

Honesty note: CPython cannot be made watertight against hostile code the
way the JVM's verifier + SecurityManager were believed to be in 1998.
This package *models* those mechanisms faithfully enough to reproduce the
paper's architecture and experiments; the verifier blocks the standard
escape vectors (dunder access, introspection builtins, imports) but is a
research artifact, not a production sandbox.
"""

from repro.sandbox.verifier import VerifierPolicy, verify_source
from repro.sandbox.namespace import AgentNamespace
from repro.sandbox.threadgroup import (
    ThreadGroup,
    current_group,
    enter_group,
)
from repro.sandbox.domain import ProtectionDomain, current_domain
from repro.sandbox.security_manager import SecurityManager

__all__ = [
    "VerifierPolicy",
    "verify_source",
    "AgentNamespace",
    "ThreadGroup",
    "current_group",
    "enter_group",
    "ProtectionDomain",
    "current_domain",
    "SecurityManager",
]
