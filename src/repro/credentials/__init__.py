"""Principals, rights, and tamperproof agent credentials (section 5.2).

An agent carries :class:`~repro.credentials.credentials.Credentials`
binding its identity to its **owner** (the human it represents) and its
**creator** (the application or agent that launched it), signed with the
owner's key and carrying the owner's public-key certificate.  Rights the
owner delegates to the agent are encoded as a
:class:`~repro.credentials.rights.Rights` restriction; servers forwarding
an agent can attenuate further via cascaded
:class:`~repro.credentials.delegation.DelegationLink` entries (Sollins-
style cascaded authentication — a delegate can never *gain* rights).
"""

from repro.credentials.principal import (
    Group,
    GroupDirectory,
    Principal,
    membership_epoch,
)
from repro.credentials.rights import CompositeRights, Rights
from repro.credentials.credentials import Credentials
from repro.credentials.delegation import DelegatedCredentials, DelegationLink
from repro.credentials.cache import (
    CredentialVerificationCache,
    credential_fingerprint,
)

__all__ = [
    "Principal",
    "Group",
    "GroupDirectory",
    "membership_epoch",
    "Rights",
    "CompositeRights",
    "Credentials",
    "DelegationLink",
    "DelegatedCredentials",
    "CredentialVerificationCache",
    "credential_fingerprint",
]
