"""Exactly-once transfer bookkeeping: dedup, journal, checkpoint store.

Two small data structures give the ATP handoff its exactly-once
semantics over an at-most-once transport:

* :class:`DedupTable` (receiver side) — a bounded map from
  ``(peer, transfer_id)`` to the encoded reply already produced for that
  transfer.  A retransmitted ``atp.transfer`` (lost reply, sender retry,
  sender crash + recovery) is answered idempotently from the table
  instead of admitting a second copy of the agent.
* :class:`DepartureJournal` (sender side) — an in-memory stand-in for a
  write-ahead record on stable storage.  A departure is journaled
  *before* the first network attempt and resolved only on a terminal
  outcome (positive ack, definitive refusal, or retry exhaustion handed
  back to the live agent).  A server that crashes mid-transfer therefore
  restarts with the in-flight images still at hand and can re-offer them
  (same transfer id — the receiver's dedup table absorbs the case where
  the original attempt actually landed) or return them to their home
  site, instead of silently stranding them.
* :class:`CheckpointStore` (home side) — the self-healing plane's
  generalization of the journal.  Where the journal protects agents the
  *sender* knows are in flight, the checkpoint store protects agents a
  *remote* server is currently hosting: each resident's latest sealed
  escrow image (a virtual departure back to its home site, captured at
  hop boundaries and on a periodic daemon tick) is kept at the home
  site, newest-wins by a monotonic sequence, so that when the hosting
  server is confirmed dead the recovery coordinator can re-home the
  agent from its last checkpoint.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Hashable

from repro.agents.transfer import AgentImage

__all__ = [
    "DedupTable",
    "DepartureJournal",
    "DepartureRecord",
    "AgentCheckpoint",
    "CheckpointStore",
]


class DedupTable:
    """Bounded LRU map of transfer id → cached encoded reply."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("dedup table capacity must be positive")
        self.capacity = capacity
        self._entries: collections.OrderedDict[Hashable, bytes] = (
            collections.OrderedDict()
        )
        self.hits = 0
        self.evictions = 0

    def get(self, key: Hashable) -> bytes | None:
        """The cached reply for ``key``, refreshing its LRU position."""
        reply = self._entries.get(key)
        if reply is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        return reply

    def put(self, key: Hashable, reply: bytes) -> None:
        self._entries[key] = reply
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries


@dataclass(slots=True)
class DepartureRecord:
    """One in-flight departure, as recoverable state."""

    transfer_id: str
    image: AgentImage
    destination: str
    domain_id: str
    recorded_at: float


class DepartureJournal:
    """The sender's write-ahead record of in-flight departures."""

    def __init__(self) -> None:
        self._records: dict[str, DepartureRecord] = {}

    def record(
        self,
        transfer_id: str,
        image: AgentImage,
        destination: str,
        domain_id: str,
        now: float,
    ) -> DepartureRecord:
        record = DepartureRecord(
            transfer_id=transfer_id,
            image=image,
            destination=destination,
            domain_id=domain_id,
            recorded_at=now,
        )
        self._records[transfer_id] = record
        return record

    def resolve(self, transfer_id: str) -> DepartureRecord | None:
        """Remove a record on a terminal outcome; returns it (or None)."""
        return self._records.pop(transfer_id, None)

    def pending(self) -> list[DepartureRecord]:
        """In-flight departures, oldest first."""
        return sorted(self._records.values(), key=lambda r: r.recorded_at)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, transfer_id: str) -> bool:
        return transfer_id in self._records


@dataclass(slots=True)
class AgentCheckpoint:
    """One agent's latest escrow image, held at its home site.

    ``image`` is a *sealed virtual departure* from ``location`` back to
    the home server: its trace ends at the hosting server and (when
    integrity is enabled) its appraisal chain's tip names the home site
    as destination, so the home server can either relaunch it locally
    without any reseal or forward it to a survivor with an ordinary
    ``reseal_tip``.  ``seq`` orders checkpoints for one agent —
    ``(hops, recorded_at)`` — so a stale push (an old hop arriving after
    a newer one) never regresses the stored image.
    """

    agent: str
    image: AgentImage
    location: str
    seq: tuple[int, float]
    recorded_at: float


class CheckpointStore:
    """Newest-wins map of agent name → latest :class:`AgentCheckpoint`."""

    def __init__(self) -> None:
        self._checkpoints: dict[str, AgentCheckpoint] = {}

    def put(
        self,
        agent: str,
        image: AgentImage,
        location: str,
        seq: tuple[int, float],
        now: float,
    ) -> bool:
        """Store a checkpoint unless a newer one is already held."""
        current = self._checkpoints.get(agent)
        if current is not None and current.seq >= seq:
            return False
        self._checkpoints[agent] = AgentCheckpoint(
            agent=agent,
            image=image,
            location=location,
            seq=seq,
            recorded_at=now,
        )
        return True

    def get(self, agent: str) -> AgentCheckpoint | None:
        return self._checkpoints.get(agent)

    def retire(self, agent: str) -> AgentCheckpoint | None:
        """Drop an agent's checkpoint (it completed or went home)."""
        return self._checkpoints.pop(agent, None)

    def at(self, location: str) -> list[AgentCheckpoint]:
        """Active checkpoints whose agents were last seen at ``location``."""
        return sorted(
            (c for c in self._checkpoints.values() if c.location == location),
            key=lambda c: c.agent,
        )

    def __len__(self) -> int:
        return len(self._checkpoints)

    def __contains__(self, agent: str) -> bool:
        return agent in self._checkpoints
