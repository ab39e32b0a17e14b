"""URN-style global names: ``urn:<kind>:<authority>/<local-path>``.

Modeled on Ajanta's name space: every principal, server, agent and
resource gets a name rooted at the naming authority (typically the owning
organization's domain), e.g.::

    urn:server:umn.edu/agent-server-1
    urn:agent:umn.edu/anand/shopper-17
    urn:resource:store.com/quote-db

Names are immutable value objects, canonical (lower-cased kind and
authority), serializable, and usable as dict keys.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import NamingError
from repro.util.serialization import register_serializable

__all__ = ["URN"]

_KIND_RE = re.compile(r"^[a-z][a-z0-9-]*$")
_AUTHORITY_RE = re.compile(r"^[a-z0-9]([a-z0-9.-]*[a-z0-9])?$")
_LOCAL_RE = re.compile(r"^[A-Za-z0-9._~-]+(/[A-Za-z0-9._~-]+)*$")

KNOWN_KINDS = frozenset({"agent", "server", "resource", "principal", "group"})


@dataclass(frozen=True, slots=True)
class URN:
    """An immutable global name."""

    kind: str
    authority: str
    local: str
    # The text form, built once: audit records, name records and proxy
    # holders then share one string per name.
    _text: str = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not _KIND_RE.match(self.kind):
            raise NamingError(f"invalid URN kind {self.kind!r}")
        if not _AUTHORITY_RE.match(self.authority):
            raise NamingError(f"invalid URN authority {self.authority!r}")
        if not _LOCAL_RE.match(self.local):
            raise NamingError(f"invalid URN local part {self.local!r}")
        object.__setattr__(
            self, "_text", f"urn:{self.kind}:{self.authority}/{self.local}"
        )

    @classmethod
    def parse(cls, text: str) -> "URN":
        """Parse ``urn:<kind>:<authority>/<local>``."""
        if not isinstance(text, str):
            raise NamingError(f"URN must be a string, got {type(text).__name__}")
        parts = text.split(":", 2)
        if len(parts) != 3 or parts[0] != "urn":
            raise NamingError(f"malformed URN {text!r} (expected urn:<kind>:<rest>)")
        _, kind, rest = parts
        authority, sep, local = rest.partition("/")
        if not sep:
            raise NamingError(f"malformed URN {text!r} (missing /<local> part)")
        return cls(kind=kind.lower(), authority=authority.lower(), local=local)

    @classmethod
    def make(cls, kind: str, authority: str, local: str) -> "URN":
        return cls(kind=kind.lower(), authority=authority.lower(), local=local)

    def child(self, suffix: str) -> "URN":
        """A name nested under this one (e.g. a child agent)."""
        return URN(kind=self.kind, authority=self.authority, local=f"{self.local}/{suffix}")

    def __str__(self) -> str:
        return self._text

    def to_state(self) -> str:
        return str(self)

    @classmethod
    def from_state(cls, state: str) -> "URN":
        return cls.parse(state)


register_serializable(URN, intern=True)
