"""The agent environment: what a visiting agent sees of its host.

Fig. 1: "Each agent server has an agent environment component, which acts
as the interface between visiting agents and the server."  The server
injects an :class:`AgentEnvironment` as the agent's ``host`` reference on
arrival (section 4).

This facade is the *only* object connecting agent code to the server.
Its internals are underscore-prefixed (unreachable from verified agent
code), and every method either performs a safe read or funnels into a
mediated path: ``get_resource`` runs the Fig. 6 binding protocol (so the
agent gets proxies, never resources), ``register_resource`` passes the
security manager's ``resource_register`` check, and identity for all of
it derives from the calling thread's protection domain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.agents.mailbox import AgentMailbox, mailbox_name_of
from repro.core.policy import SecurityPolicy
from repro.core.resource import Resource, ResourceImpl
from repro.errors import AgentStateError, UnknownNameError
from repro.naming.urn import URN
from repro.sandbox.threadgroup import wrap_in_group
from repro.sim.threads import SimThread

if TYPE_CHECKING:  # pragma: no cover
    from repro.sandbox.domain import ProtectionDomain
    from repro.server.agent_server import AgentServer

__all__ = ["AgentEnvironment", "AgentThread"]


class AgentThread:
    """Handle to a worker thread an agent spawned inside its own group.

    Section 5.3: "All threads created by the agent belong to the same
    thread group" — the handle exposes join/alive only; the underlying
    simulated thread stays private.
    """

    def __init__(self, thread: SimThread) -> None:
        self._thread = thread

    def join(self) -> object:
        """Wait for the worker; returns its result (re-raises its error)."""
        return self._thread.join()

    def alive(self) -> bool:
        return self._thread.is_alive


class AgentEnvironment:
    """Per-resident facade over one :class:`AgentServer`."""

    def __init__(
        self,
        server: "AgentServer",
        domain: "ProtectionDomain",
        home_site: str,
    ) -> None:
        self._server = server
        self._domain = domain
        self._home_site = home_site
        self._mailbox: AgentMailbox | None = None

    # -- orientation ----------------------------------------------------------

    def server_name(self) -> str:
        """The global name of the hosting server."""
        return self._server.name

    def home_site(self) -> str:
        return self._home_site

    def now(self) -> float:
        """Current (virtual) time at this host."""
        return self._server.clock.now()

    # -- time ----------------------------------------------------------------------

    def sleep(self, seconds: float) -> None:
        """Suspend the calling agent thread for ``seconds``."""
        thread = self._server.kernel.current_thread()
        if thread is None:
            raise AgentStateError("sleep() outside a simulated thread")
        thread.sleep(seconds)

    # -- resources (the paper's primitives, section 4) ---------------------------------

    def get_resource(self, name: "URN | str", token: Any | None = None) -> Resource:
        """Obtain a proxy for a named resource (Fig. 6, steps 2-6).

        ``token`` — a capability token (or its wire bytes) saved from a
        previous proxy's ``capability_token()``, typically carried across
        a migration hop: a fresh token re-binds in O(1) without a policy
        consult, a stale one transparently re-runs full authorization.
        """
        if isinstance(name, str):
            name = URN.parse(name)
        return self._server.binding.get_resource(name, token=token)

    def register_resource(self, resource: ResourceImpl) -> None:
        """Install a resource on this server (section 5.5; mediated)."""
        self._server.binding.register_resource(resource)

    def resources_available(self) -> list[str]:
        """Names of resources currently registered here."""
        return [str(n) for n in self._server.registry.names()]

    # -- awareness of co-located agents ----------------------------------------------

    def co_located_agents(self) -> list[str]:
        """Names of other agents currently resident on this server."""
        me = self._domain.domain_id
        return [
            str(record.agent)
            for record in self._server.domain_db.residents()
            if record.domain_id != me
        ]

    # -- agent-to-agent communication (sections 5.5 / 6) -------------------------------

    def create_mailbox(self, policy: SecurityPolicy) -> str:
        """Register this agent as a resource: an inbox under its name.

        ``policy`` decides which other agents may ``deliver``.  Returns
        the mailbox's global name (share it, or let peers derive it with
        :func:`~repro.agents.mailbox.mailbox_name_of`).  The registration
        is ephemeral: it disappears when this agent departs or retires.
        """
        if self._mailbox is not None:
            raise AgentStateError("agent already has a mailbox here")
        assert self._domain.credentials is not None
        mailbox = AgentMailbox(
            self._domain.credentials.agent, policy, self._server.kernel
        )
        self._server.registry.register_for(
            mailbox, self._domain.domain_id, ephemeral=True
        )
        self._mailbox = mailbox
        return str(mailbox.resource_name())

    def mailbox_of(self, agent_name: str) -> str:
        """The well-known mailbox resource name of another agent."""
        return str(mailbox_name_of(URN.parse(agent_name)))

    def receive(self) -> tuple[str, object]:
        """Blocking read from this agent's own mailbox: (sender, message)."""
        if self._mailbox is None:
            raise AgentStateError("create_mailbox() first")
        return self._mailbox.receive()

    def try_receive(self) -> tuple[bool, object]:
        if self._mailbox is None:
            raise AgentStateError("create_mailbox() first")
        return self._mailbox.try_receive()

    # -- co-location (section 4's "co-location with named objects") --------------------

    def locate(self, name: "URN | str") -> str | None:
        """Where the name service last saw ``name`` (None if unknown)."""
        if self._server.name_service is None:
            return None
        if isinstance(name, str):
            name = URN.parse(name)
        try:
            return self._server.name_service.lookup(name).location
        except UnknownNameError:
            return None

    # -- worker threads (section 5.3: threads stay in the agent's group) ---------------

    def spawn_thread(self, target, name: str = "worker") -> AgentThread:
        """Run ``target`` concurrently inside this agent's thread group."""
        self._server.security_manager.check_thread_create(self._domain.thread_group)
        thread = SimThread(
            self._server.kernel,
            wrap_in_group(self._domain.thread_group, target),
            name=f"{self._domain.domain_id}/{name}",
            on_error="store",
        )
        # Group-wide control (terminate, runaway containment) must reach
        # workers too, so the group tracks its members.
        self._domain.thread_group.adopt(thread)
        thread.start()
        return AgentThread(thread)

    # -- child agents (section 4: creating, monitoring, controlling) -------------------

    def launch_child(self, image) -> str:
        """Launch a carried agent image on this server.

        Section 2 distinguishes an agent's *creator* from its owner: "The
        agent itself may be created by another entity — such as an
        application program, or another agent."  The child image must
        carry its own owner-signed credentials (typically minted at home
        and carried in the parent's state); it passes the same admission
        checks as any arriving agent.  Returns the child's domain id.
        """
        from repro.agents.transfer import AgentImage

        if not isinstance(image, AgentImage):
            raise AgentStateError("launch_child expects an AgentImage")
        self._server.audit.record(
            self._domain.domain_id, "agent.launch_child", str(image.name), True
        )
        return self._server.launch(image)

    def agent_status(self, agent_name: "URN | str") -> dict:
        """Status of an agent resident on *this* server (child monitoring)."""
        if isinstance(agent_name, str):
            agent_name = URN.parse(agent_name)
        return self._server.resident_status(agent_name)

    def terminate_child(self, agent_name: "URN | str") -> bool:
        """Issue a terminate control command to a child on this server.

        Section 4: agents may issue "control commands" to their children.
        Only the recorded *creator* of the target may do this; anyone else
        gets a PrivilegeError (audited).
        """
        from repro.errors import PrivilegeError

        if isinstance(agent_name, str):
            agent_name = URN.parse(agent_name)
        record = self._server.domain_db.by_agent(agent_name)
        assert self._domain.credentials is not None
        me = self._domain.credentials.agent
        if record.creator != me:
            self._server.audit.record(
                self._domain.domain_id, "agent.terminate_child",
                str(agent_name), False, "caller is not the creator",
            )
            raise PrivilegeError(
                f"{me} is not the creator of {agent_name}"
            )
        self._server.audit.record(
            self._domain.domain_id, "agent.terminate_child",
            str(agent_name), True, "",
        )
        killed = self._server.terminate_resident(record.domain_id)
        if killed:
            self._server.stats.add("agents_terminated_by_creator")
        return killed

    # -- reporting --------------------------------------------------------------------

    def report_home(self, payload: Any) -> None:
        """Send a status/result report to the agent's home site."""
        self._server.send_agent_report(self._domain, self._home_site, payload)

    def log(self, message: str) -> None:
        """Leave a note in the server's audit trail (benign, always allowed)."""
        self._server.audit.record(
            self._domain.domain_id, "agent.log", "", True, message
        )
