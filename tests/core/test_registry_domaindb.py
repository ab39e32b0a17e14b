"""Tests for the resource registry and the domain database."""

from __future__ import annotations

import pytest

from repro.apps.buffer import Buffer
from repro.core.domain_db import TOMBSTONE_RING, DomainDatabase, DomainTombstone
from repro.core.policy import SecurityPolicy
from repro.core.registry import ResourceRegistry
from repro.core.resource import ResourceImpl
from repro.credentials.rights import Rights
from repro.errors import (
    DuplicateNameError,
    PrivilegeError,
    SecurityException,
    UnknownNameError,
)
from repro.naming.urn import URN
from repro.sandbox.security_manager import SecurityManager
from repro.sandbox.domain import ProtectionDomain
from repro.sandbox.threadgroup import ThreadGroup, enter_group

RES = URN.parse("urn:resource:store.com/buf")
OWNER = URN.parse("urn:principal:store.com/admin")


@pytest.fixture()
def registry(env):
    secman = SecurityManager(env.server_domain, env.audit)
    return ResourceRegistry(secman, env.clock)


def make_buffer(name=RES):
    return Buffer(name, OWNER, SecurityPolicy.allow_all())


class TestRegistry:
    def test_server_registers_and_lookup(self, env, registry):
        buf = make_buffer()
        with enter_group(env.server_domain.thread_group):
            registry.register(buf)
        assert registry.lookup(RES) is buf
        assert RES in registry
        assert registry.names() == [RES]
        assert registry.entry(RES).owner_domain == "server"

    def test_duplicate_rejected(self, env, registry):
        with enter_group(env.server_domain.thread_group):
            registry.register(make_buffer())
            with pytest.raises(DuplicateNameError):
                registry.register(make_buffer())

    def test_unknown_lookup(self, registry):
        with pytest.raises(UnknownNameError):
            registry.lookup(RES)

    def test_unmanaged_registration_denied(self, registry):
        with pytest.raises(PrivilegeError):
            registry.register(make_buffer())

    def test_agent_needs_system_right(self, env, registry):
        privileged = env.agent_domain(Rights.of("system.resource_register"))
        plain = env.agent_domain(Rights.of("Buffer.*"))
        other = URN.parse("urn:resource:store.com/buf2")
        with enter_group(privileged.thread_group):
            registry.register(make_buffer())  # allowed: installer agent
        with enter_group(plain.thread_group):
            with pytest.raises(PrivilegeError):
                registry.register(make_buffer(other))

    def test_non_access_protocol_resource_rejected(self, env, registry):
        class Naked(ResourceImpl):
            pass

        with enter_group(env.server_domain.thread_group):
            with pytest.raises(SecurityException, match="AccessProtocol"):
                registry.register(Naked(RES, OWNER))

    def test_unregister_by_owner_domain(self, env, registry):
        installer = env.agent_domain(Rights.of("system.resource_register"))
        with enter_group(installer.thread_group):
            registry.register(make_buffer())
            registry.unregister(RES)
        assert RES not in registry

    def test_unregister_by_server_always_allowed(self, env, registry):
        installer = env.agent_domain(Rights.of("system.resource_register"))
        with enter_group(installer.thread_group):
            registry.register(make_buffer())
        with enter_group(env.server_domain.thread_group):
            registry.unregister(RES)

    def test_unregister_by_stranger_denied(self, env, registry):
        installer = env.agent_domain(Rights.of("system.resource_register"))
        stranger = env.agent_domain(Rights.all())
        with enter_group(installer.thread_group):
            registry.register(make_buffer())
        with enter_group(stranger.thread_group):
            with pytest.raises(PrivilegeError, match="may not unregister"):
                registry.unregister(RES)
        assert RES in registry


class TestDomainDatabase:
    def admit(self, env, db, domain):
        with enter_group(env.server_domain.thread_group):
            return db.admit(domain, domain.credentials, "urn:server:umn.edu/home")

    def test_admit_and_query(self, env):
        db = DomainDatabase(env.clock)
        domain = env.agent_domain(Rights.all())
        record = self.admit(env, db, domain)
        assert db.get(domain.domain_id) is record
        assert db.by_agent(record.agent) is record
        assert record.status == "running"
        assert record.owner == env.owner
        assert len(db) == 1
        assert domain.domain_id in db

    def test_writes_denied_outside_server(self, env):
        db = DomainDatabase(env.clock)
        domain = env.agent_domain(Rights.all())
        with pytest.raises(PrivilegeError):
            db.admit(domain, domain.credentials, "home")
        with enter_group(domain.thread_group):
            with pytest.raises(PrivilegeError):
                db.admit(domain, domain.credentials, "home")

    def test_privileged_block_allows_writes(self, env):
        db = DomainDatabase(env.clock)
        domain = env.agent_domain(Rights.all())
        with db.privileged():
            db.admit(domain, domain.credentials, "home")
        assert len(db) == 1

    def test_status_transitions(self, env):
        db = DomainDatabase(env.clock)
        domain = env.agent_domain(Rights.all())
        self.admit(env, db, domain)
        with db.privileged():
            db.set_status(domain.domain_id, "departed")
            assert db.residents() == []
            with pytest.raises(ValueError):
                db.set_status(domain.domain_id, "abducted")

    def test_charges_accumulate(self, env):
        db = DomainDatabase(env.clock)
        domain = env.agent_domain(Rights.all())
        self.admit(env, db, domain)
        with db.privileged():
            db.add_charge(domain.domain_id, 2.5)
            db.add_charge(domain.domain_id, 1.0)
            with pytest.raises(ValueError):
                db.add_charge(domain.domain_id, -1.0)
        assert db.get(domain.domain_id).charges == 3.5

    def test_remove(self, env):
        db = DomainDatabase(env.clock)
        domain = env.agent_domain(Rights.all())
        self.admit(env, db, domain)
        with db.privileged():
            db.remove(domain.domain_id)
            with pytest.raises(UnknownNameError):
                db.remove(domain.domain_id)
        assert len(db) == 0

    def test_ended_residency_leaves_a_tombstone(self, env):
        db = DomainDatabase(env.clock)
        domain = env.agent_domain(Rights.all())
        record = self.admit(env, db, domain)
        did = domain.domain_id
        with db.privileged():
            db.record_binding(did, RES, object())
            db.add_charge(did, 1.5)
            db.set_status(did, "departed")
        tomb = db.get(did)
        assert isinstance(tomb, DomainTombstone)
        assert not hasattr(tomb, "domain") and not hasattr(tomb, "bindings")
        assert (tomb.agent, tomb.owner, tomb.status, tomb.charges) == (
            record.agent, record.owner, "departed", 1.5,
        )
        assert tomb.binding_count == 1
        assert db.residents() == []
        # Held weakly: the group outlives the residency only while
        # something else (here, the domain) still holds it.
        assert tomb.thread_group is domain.thread_group
        assert db.by_agent(record.agent) is tomb
        with db.privileged():
            # A meter settled after the end still charges, a late grant
            # is counted, and recovery may rewrite the final status.
            db.add_charge(did, 0.5)
            db.record_binding(did, RES, object())
            db.set_status(did, "terminated")
            with pytest.raises(ValueError):
                db.set_status(did, "running")
        assert (tomb.charges, tomb.binding_count) == (2.0, 2)
        assert db.status_counts() == {
            "running": 0, "departed": 0, "completed": 0, "terminated": 1,
        }

    def test_ring_forgets_the_oldest_tombstone(self, env):
        db = DomainDatabase(env.clock)
        credentials = env.agent_domain(Rights.all()).credentials
        for i in range(TOMBSTONE_RING + 1):
            domain = ProtectionDomain(
                f"d{i}", "agent", ThreadGroup(f"g{i}"), credentials=credentials
            )
            self.admit(env, db, domain)
            with db.privileged():
                db.set_status(domain.domain_id, "completed")
        assert len(db) == TOMBSTONE_RING
        assert "d0" not in db and "d1" in db
        with pytest.raises(UnknownNameError):
            db.get("d0")
        assert db.status_counts()["completed"] == TOMBSTONE_RING + 1
        assert db.by_agent(credentials.agent).domain_id == f"d{TOMBSTONE_RING}"
        remembered = db.records_of(credentials.agent)
        assert len(remembered) == TOMBSTONE_RING
        assert remembered[0].domain_id == "d1"

    def test_by_agent_prefers_the_running_residency(self, env):
        """A revisiting agent has one record per visit: the running one
        answers, not the departed first visit."""
        db = DomainDatabase(env.clock)
        credentials = env.agent_domain(Rights.all()).credentials
        first, second = (
            ProtectionDomain(f"v{i}", "agent", ThreadGroup(f"vg{i}"),
                             credentials=credentials)
            for i in (1, 2)
        )
        self.admit(env, db, first)
        with db.privileged():
            db.set_status("v1", "departed")
        self.admit(env, db, second)
        assert db.by_agent(credentials.agent).domain_id == "v2"
        with db.privileged():
            db.set_status("v2", "completed")
        assert db.by_agent(credentials.agent).status == "completed"

    def test_unknown_queries(self, env):
        db = DomainDatabase(env.clock)
        with pytest.raises(UnknownNameError):
            db.get("ghost")
        with pytest.raises(UnknownNameError):
            db.by_agent(URN.parse("urn:agent:x.com/ghost"))
