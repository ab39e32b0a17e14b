"""The paper's contribution: proxy-based protected resource access.

Components, keyed to the paper's figures:

- :mod:`repro.core.resource` — ``Resource`` / ``ResourceImpl`` and the
  ``@export`` interface marker (Fig. 3).
- :mod:`repro.core.access_protocol` — the ``AccessProtocol`` interface
  whose ``get_proxy`` upcall authorizes and manufactures proxies (Fig. 7).
- :mod:`repro.core.proxy` — per-agent proxy synthesis with selectively
  disabled methods, expiry, revocation, capability confinement and
  metering hooks (Fig. 5 + section 5.5).
- :mod:`repro.core.policy` — the server-side security policy consulted by
  ``get_proxy`` (section 5.2).
- :mod:`repro.core.registry` — the resource registry (Fig. 6, step 1/3).
- :mod:`repro.core.domain_db` — the domain database (section 5.3).
- :mod:`repro.core.binding` — the six-step resource request protocol
  (Fig. 6).
- :mod:`repro.core.accounting` — usage metering and charging (section 5.5).
- :mod:`repro.core.capability` — identity-based capability confinement.
- :mod:`repro.core.token` — MAC-signed capability tokens, epoch-based
  revocation, and protection-ring trust tiers (O(1) warm-path
  enforcement).
- :mod:`repro.core.baselines` — the alternative designs of section 5.4
  (wrapper+ACL, security-manager-checked, Safe-Tcl-style two-environment)
  implemented as measurable baselines.
"""

from repro.core.resource import Resource, ResourceImpl, export, exported_methods
from repro.core.access_protocol import AccessProtocol, BindingContext
from repro.core.policy import PolicyRule, ProxyGrant, SecurityPolicy
from repro.core.proxy import ResourceProxy, synthesize_proxy_class
from repro.core.registry import ResourceRegistry
from repro.core.domain_db import DomainDatabase, DomainRecord, DomainTombstone
from repro.core.binding import BindingService
from repro.core.accounting import Meter, Tariff, UsageReport
from repro.core.capability import check_confinement
from repro.core.token import (
    RING_TRUSTED,
    RING_UNTRUSTED,
    RING_VERIFIED,
    CapabilityToken,
    EpochRegistry,
    TokenAuthority,
)

__all__ = [
    "Resource",
    "ResourceImpl",
    "export",
    "exported_methods",
    "AccessProtocol",
    "BindingContext",
    "SecurityPolicy",
    "PolicyRule",
    "ProxyGrant",
    "ResourceProxy",
    "synthesize_proxy_class",
    "ResourceRegistry",
    "DomainDatabase",
    "DomainRecord",
    "DomainTombstone",
    "BindingService",
    "Meter",
    "Tariff",
    "UsageReport",
    "check_confinement",
    "CapabilityToken",
    "TokenAuthority",
    "EpochRegistry",
    "RING_TRUSTED",
    "RING_VERIFIED",
    "RING_UNTRUSTED",
]
