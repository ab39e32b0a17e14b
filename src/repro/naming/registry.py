"""The name service: global name → current location + public key.

Section 4's domain registry / status-query machinery needs a way to find
"where is agent X now" and "which server exports resource Y".  Ajanta ran
a name registry service; here it is an in-memory authority shared by the
simulation.  Updates are owner-authenticated: a record can only be moved
or removed by presenting the owner token returned at registration
(modelling the registry's "ownership information ... used to prevent any
unauthorized modifications", section 5.5).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any

from repro.errors import (
    DuplicateNameError,
    NamingError,
    ReproError,
    UnknownNameError,
)
from repro.naming.urn import URN
from repro.util.ids import IdGenerator
from repro.util.serialization import encode

__all__ = ["NameRecord", "NameService", "error_reply", "raise_reply_error"]

# The naming error protocol shared by every name server and its clients:
# a failed operation replies ``{"error": message, "kind": kind}``.
# Most specific first: the first class ``exc`` is an instance of names it.
_ERROR_KINDS = {
    "unknown": UnknownNameError,
    "duplicate": DuplicateNameError,
    "naming": NamingError,
}


def error_reply(exc: ReproError) -> bytes:
    """The encoded reply for a naming operation that raised ``exc``."""
    kind = next(
        (k for k, cls in _ERROR_KINDS.items() if isinstance(exc, cls)), "naming"
    )
    return encode({"error": str(exc), "kind": kind})


def raise_reply_error(reply: dict) -> None:
    """Raise the naming error a decoded reply carries, if it carries one."""
    if "error" in reply:
        raise _ERROR_KINDS.get(reply.get("kind"), NamingError)(reply["error"])


@dataclass(frozen=True, slots=True)
class NameRecord:
    """What the name service knows about one name."""

    name: URN
    location: str  # the hosting server's name (as a string URN)
    attributes: dict[str, Any]


class NameService:
    """A flat, authenticated name → record mapping.

    Lock discipline: ``_records`` and ``_owners`` are only ever touched
    under ``_lock`` (they must stay keyed identically — every register
    inserts into both, every unregister deletes from both, atomically),
    and nothing mutable that aliases the protected state escapes a
    method: records are frozen, and the one mutable field (the
    ``attributes`` dict) is copied both on the way in (:meth:`register`)
    and on the way out (:meth:`lookup`), so no caller can reach around
    the lock by editing a returned record's dict in place.
    """

    def __init__(self) -> None:
        self._records: dict[URN, NameRecord] = {}
        self._owners: dict[URN, str] = {}
        self._tokens = IdGenerator("nstoken")
        self._lock = threading.Lock()

    def register(
        self,
        name: URN,
        location: str,
        attributes: dict[str, Any] | None = None,
    ) -> str:
        """Bind ``name``; returns the owner token needed for later updates."""
        if not isinstance(name, URN):
            raise NamingError("names must be URN instances")
        with self._lock:
            if name in self._records:
                raise DuplicateNameError(f"{name} is already registered")
            token = self._tokens.next()
            self._records[name] = NameRecord(
                name=name, location=location, attributes=dict(attributes or {})
            )
            self._owners[name] = token
            return token

    def lookup(self, name: URN) -> NameRecord:
        with self._lock:
            try:
                record = self._records[name]
            except KeyError:
                raise UnknownNameError(f"{name} is not registered") from None
        # Defensive copy: returning the live attributes dict would let a
        # caller mutate registry state without the lock (and leak later
        # registry-side updates into records it already handed out).
        return replace(record, attributes=dict(record.attributes))

    def contains(self, name: URN) -> bool:
        with self._lock:
            return name in self._records

    def relocate(self, name: URN, token: str, new_location: str) -> None:
        """Update a name's location (agent migrated); owner-token gated."""
        with self._lock:
            self._check_owner(name, token)
            self._records[name] = replace(self._records[name], location=new_location)

    def unregister(self, name: URN, token: str) -> None:
        with self._lock:
            self._check_owner(name, token)
            del self._records[name]
            del self._owners[name]

    def _check_owner(self, name: URN, token: str) -> None:
        if name not in self._records:
            raise UnknownNameError(f"{name} is not registered")
        if self._owners[name] != token:
            raise NamingError(f"bad owner token for {name}")

    def names(self, kind: str | None = None) -> list[URN]:
        """All registered names, optionally filtered by kind."""
        with self._lock:
            return [
                n for n in self._records if kind is None or n.kind == kind
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)
