"""Tests for thread groups, protection domains and the security manager."""

from __future__ import annotations

import pytest

from repro.credentials.credentials import Credentials
from repro.credentials.delegation import DelegatedCredentials
from repro.credentials.rights import Rights
from repro.crypto.cert import CertificateAuthority
from repro.crypto.keys import KeyPair
from repro.errors import PrivilegeError
from repro.naming.urn import URN
from repro.sandbox.domain import ProtectionDomain, current_domain
from repro.sandbox.security_manager import SecurityManager
from repro.sandbox.threadgroup import (
    ThreadGroup,
    current_group,
    enter_group,
    wrap_in_group,
)
from repro.util.audit import AuditLog
from repro.util.clock import VirtualClock
from repro.util.rng import make_rng


def make_agent_domain(domain_id: str, rights: Rights, parent: ThreadGroup | None = None):
    clock = VirtualClock()
    ca = CertificateAuthority("ca", make_rng(20, f"ca:{domain_id}"), clock)
    owner_keys = KeyPair.generate(make_rng(21, f"keys:{domain_id}"), bits=512)
    owner = URN.parse("urn:principal:umn.edu/owner")
    cert = ca.issue(str(owner), owner_keys.public)
    cred = Credentials.issue(
        agent=URN.parse(f"urn:agent:umn.edu/{domain_id}"),
        owner=owner,
        creator=owner,
        owner_keys=owner_keys,
        owner_certificate=cert,
        rights=rights,
        now=0.0,
    )
    group = ThreadGroup(f"group:{domain_id}", parent=parent)
    return ProtectionDomain(
        domain_id, "agent", group, credentials=DelegatedCredentials.wrap(cred)
    )


@pytest.fixture()
def server_domain():
    return ProtectionDomain("server", "server", ThreadGroup("server-group"))


@pytest.fixture()
def secman(server_domain):
    return SecurityManager(server_domain, AuditLog())


class TestThreadGroups:
    def test_current_group_default_none(self):
        assert current_group() is None

    def test_enter_group_nesting(self):
        g1, g2 = ThreadGroup("g1"), ThreadGroup("g2")
        with enter_group(g1):
            assert current_group() is g1
            with enter_group(g2):
                assert current_group() is g2
            assert current_group() is g1
        assert current_group() is None

    def test_is_within_hierarchy(self):
        parent = ThreadGroup("parent")
        child = ThreadGroup("child", parent=parent)
        assert child.is_within(parent)
        assert child.is_within(child)
        assert not parent.is_within(child)

    def test_wrap_in_group(self):
        g = ThreadGroup("g")
        seen = []
        wrap_in_group(g, lambda: seen.append(current_group()))()
        assert seen == [g]
        assert current_group() is None

    def test_finished_thread_leaves_its_group_at_once(self):
        from repro.sim.kernel import Kernel
        from repro.sim.threads import SimThread

        kernel = Kernel()
        g = ThreadGroup("g")
        short = SimThread(kernel, wrap_in_group(g, lambda: None), name="short")
        long = SimThread(
            kernel, wrap_in_group(g, lambda: long.sleep(10.0)), name="long"
        )
        for thread in (short, long):
            g.adopt(thread)
            thread.start()
        kernel.run(until=5.0)
        # No live_threads() call in between: the member set itself shrank.
        assert list(g._members) == [long]
        kernel.run()
        assert not g._members and g.live_threads() == []


class TestProtectionDomain:
    def test_group_backref(self, server_domain):
        assert server_domain.thread_group.domain is server_domain

    def test_current_domain_via_group(self, server_domain):
        with enter_group(server_domain.thread_group):
            assert current_domain() is server_domain
        assert current_domain() is None

    def test_current_domain_walks_up_child_groups(self):
        domain = make_agent_domain("a1", Rights.all())
        child = ThreadGroup("child", parent=domain.thread_group)
        with enter_group(child):
            assert current_domain() is domain

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            ProtectionDomain("x", "alien", ThreadGroup("g"))


class TestSecurityManager:
    def test_requires_server_domain(self):
        agent = make_agent_domain("a1", Rights.all())
        with pytest.raises(PrivilegeError):
            SecurityManager(agent, AuditLog())

    def test_server_domain_fully_privileged(self, server_domain, secman):
        with enter_group(server_domain.thread_group):
            secman.check("anything", target="x")
            secman.check_server_only("domain_db.write")

    def test_unmanaged_context_denied(self, secman):
        with pytest.raises(PrivilegeError, match="outside any protection domain"):
            secman.check("resource_register")

    def test_agent_with_system_right_allowed(self, secman):
        domain = make_agent_domain(
            "a1", Rights.of("system.resource_register", "Buffer.*")
        )
        with enter_group(domain.thread_group):
            secman.check("resource_register")  # allowed
            with pytest.raises(PrivilegeError, match="denied"):
                secman.check("domain_db_write")

    def test_agent_without_rights_denied(self, secman):
        domain = make_agent_domain("a1", Rights.of("Buffer.get"))
        with enter_group(domain.thread_group):
            with pytest.raises(PrivilegeError):
                secman.check("resource_register")

    def test_server_only_check(self, secman):
        domain = make_agent_domain("a1", Rights.all())  # even all rights
        with enter_group(domain.thread_group):
            with pytest.raises(PrivilegeError, match="server-only"):
                secman.check_server_only("registry.mutate")

    def test_thread_create_own_group_allowed(self, secman):
        domain = make_agent_domain("a1", Rights.none())
        child = ThreadGroup("a1-child", parent=domain.thread_group)
        with enter_group(domain.thread_group):
            secman.check_thread_create(domain.thread_group)
            secman.check_thread_create(child)  # descendant of own group

    def test_thread_create_foreign_group_denied(self, secman):
        """The paper's worked example from section 5.3."""
        a1 = make_agent_domain("a1", Rights.all())
        a2 = make_agent_domain("a2", Rights.all())
        with enter_group(a1.thread_group):
            with pytest.raises(PrivilegeError, match="may not create threads"):
                secman.check_thread_create(a2.thread_group)

    def test_server_may_create_threads_anywhere(self, server_domain, secman):
        agent = make_agent_domain("a1", Rights.none())
        with enter_group(server_domain.thread_group):
            secman.check_thread_create(agent.thread_group)

    def test_group_modify_server_only(self, server_domain, secman):
        agent = make_agent_domain("a1", Rights.all())
        with enter_group(agent.thread_group):
            with pytest.raises(PrivilegeError):
                secman.check_group_modify(agent.thread_group)
        with enter_group(server_domain.thread_group):
            secman.check_group_modify(agent.thread_group)

    def test_every_decision_audited(self, server_domain):
        audit = AuditLog()
        secman = SecurityManager(server_domain, audit)
        agent = make_agent_domain("a1", Rights.of("system.ping"))
        with enter_group(agent.thread_group):
            secman.check("ping")
            with pytest.raises(PrivilegeError):
                secman.check("format_disk")
        assert len(audit) == 2
        allowed, denied = list(audit)
        assert allowed.allowed and allowed.operation == "secman.ping"
        assert not denied.allowed and denied.domain == "a1"

    def test_seal(self, secman):
        assert not secman.sealed
        secman.seal()
        assert secman.sealed
