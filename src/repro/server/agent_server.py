"""The agent server: Fig. 1, assembled.

One :class:`AgentServer` owns the components the figure shows —

* the **agent environment** handed to each resident
  (:class:`~repro.agents.environment.AgentEnvironment`),
* the **domain database** and **resource registry** with the binding
  service between them,
* the **agent transfer** component (admission control + the transfer
  protocol over mutually authenticated secure channels),
* the **security manager** sealed to the server's protection domain,

and runs each resident agent in its own thread group + namespace
protection domain on the simulation kernel.

Lifecycle of a resident: image arrives (``launch`` locally or the
``atp.transfer`` channel) → admission validation → domain creation
(thread group, namespace for untrusted code, domain-db record) → the
entry method runs in a simulated thread → the run ends in exactly one of
``Departure`` (forward the captured image), ``Completion`` (report and
retire), a security violation (terminated, audited), or an agent bug
(terminated).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Iterable, Iterator

from repro.agents.agent import Agent, Completion, Departure, trusted_agent_class
from repro.agents.environment import AgentEnvironment
from repro.agents.integrity import APPRAISAL_ATTRIBUTE, IntegrityAuthority
from repro.agents.transfer import AgentImage, decode_image, encode_image
from repro.core.binding import BindingService
from repro.core.domain_db import DomainDatabase
from repro.core.registry import ResourceRegistry
from repro.core.resource import ResourceImpl
from repro.core.token import EpochRegistry, TokenAuthority
from repro.credentials.rights import Rights
from repro.crypto.cert import Certificate
from repro.crypto.trust import TrustAnchor
from repro.crypto.keys import KeyPair
from repro.errors import (
    AgentAttributeError,
    AgentIntegrityError,
    AgentStateError,
    CircuitOpenError,
    NamingError,
    NetworkError,
    ReproError,
    SecurityException,
    TransferError,
    TransferRetryExhaustedError,
    UnknownNameError,
)
from repro.naming.registry import NameService
from repro.naming.urn import URN
from repro.net.network import Network
from repro.obs import runtime as _obs
from repro.obs.aggregate import TelemetryUnit
from repro.obs.trace import SpanContext
from repro.net.secure_channel import SecureHost
from repro.net.transport import Endpoint
from repro.sandbox.domain import ProtectionDomain
from repro.sandbox.namespace import AgentNamespace
from repro.sandbox.security_manager import SecurityManager
from repro.sandbox.threadgroup import ThreadGroup, enter_group, wrap_in_group
from repro.server.admission import AdmissionPolicy
from repro.server.journal import (
    CheckpointStore,
    DedupTable,
    DepartureJournal,
    DepartureRecord,
)
from repro.server.membership import FailureDetector, MembershipConfig
from repro.server.recovery import RecoveryCoordinator, directory_vetoes
from repro.server.supervisor import ResourceSupervisor, SupervisorConfig
from repro.sim.kernel import Kernel
from repro.sim.monitor import Counter, TimeWeighted
from repro.sim.threads import SimThread
from repro.util.audit import AuditLog
from repro.util.ids import IdGenerator
from repro.util.retry import CircuitBreaker, RetryPolicy, call_with_retries
from repro.util.serialization import decode, encode

__all__ = ["AgentServer"]

# Retry schedule for delivering agent reports to their home site.
_REPORT_RETRY = RetryPolicy(attempts=3, base_delay=0.2, max_delay=5.0)
# Per-destination transfer circuit breaker: consecutive failures that
# open it (above the default retry budget of 4, so one unlucky agent
# never trips it), and virtual seconds before a half-open probe.
BREAKER_FAILURE_THRESHOLD = 8
BREAKER_RESET_TIMEOUT = 60.0


class AgentServer:
    """One hosting site in the mobile-agent system."""

    def __init__(
        self,
        *,
        name: str,
        kernel: Kernel,
        network: Network,
        trust_anchor: TrustAnchor,
        keys: KeyPair,
        certificate: Certificate,
        rng: random.Random,
        name_service: NameService | None = None,
        admission: AdmissionPolicy | None = None,
        transfer_timeout: float = 60.0,
        transfer_retry: RetryPolicy | None = None,
        forward_restriction: "Rights | None" = None,
        resident_lifetime_limit: float | None = None,
        audit_capacity: int | None = None,
        supervision: SupervisorConfig | None = None,
        appraisal: bool = True,
        membership: MembershipConfig | None = None,
        recovery: bool = False,
        epochs: EpochRegistry | None = None,
    ) -> None:
        self.name = name
        self.kernel = kernel
        self.clock = kernel.clock
        self.audit = AuditLog(self.clock, capacity=audit_capacity)
        self.stats = Counter()
        # ``transfers_failed`` is bumped beside exactly one of its causes
        # (``transfers_failed_breaker`` / ``transfers_failed_exhausted``);
        # it exists from the start so every scrape carries the total.
        self.stats.add("transfers_failed", 0)
        self.name_service = name_service
        self.transfer_timeout = transfer_timeout
        # Exactly-once handoff machinery: retry schedule, per-destination
        # circuit breakers, the sender-side departure journal (crash
        # recovery) and the receiver-side dedup table (idempotent ATP).
        self.transfer_retry = transfer_retry or RetryPolicy()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._journal = DepartureJournal()
        self._transfer_dedup = DedupTable()
        self._transfer_ids = IdGenerator(f"{name}/xfer")
        # Seeded jitter stream, forked once so transfer retries do not
        # perturb the secure-channel nonce stream.
        self._retry_rng = random.Random(rng.getrandbits(64))
        # Section 5.2 subcontracting: when set, every agent this server
        # forwards gets a delegation link attenuating it to this grant.
        self.forward_restriction = forward_restriction
        # Section 2's resource-consumption defence: residents still alive
        # after this much virtual time are forcibly terminated.
        self.resident_lifetime_limit = resident_lifetime_limit
        self.reports: list[dict[str, Any]] = []

        # Host-scoped trust state.  The admission policy's verification
        # cache is this host's one store of certificate, signature and
        # chain verdicts: admission, appraisal and handshakes consult it.
        # The token authority is keyed from this host's own key pair, so
        # its tokens authenticate here only; ``epochs`` is the world's
        # shared registry (a server built alone gets its own).
        self.admission = admission or AdmissionPolicy(trust_anchor, self.clock)
        verdicts = self.admission.credential_cache
        self.token_authority = TokenAuthority(
            keys.private.subkey("repro.capability-token-mac"),
            registry=epochs if epochs is not None else EpochRegistry(),
        )

        # Fig. 1: transfer plumbing (network endpoint + secure channels).
        self.endpoint = Endpoint(network, name)
        self.secure = SecureHost(
            endpoint=self.endpoint,
            name=name,
            keys=keys,
            certificate=certificate,
            trust_anchor=verdicts.anchored(trust_anchor, self.clock.now),
            clock=self.clock,
            rng=rng,
        )

        # Fig. 1: protection machinery.
        self.server_domain = ProtectionDomain(
            f"server:{name}", "server", ThreadGroup(f"{name}/server-group")
        )
        self.security_manager = SecurityManager(self.server_domain, self.audit)
        self.security_manager.seal()
        self.domain_db = DomainDatabase(self.clock)
        self.registry = ResourceRegistry(
            self.security_manager, self.clock, self.token_authority
        )
        self.binding = BindingService(
            self.registry,
            self.domain_db,
            self.clock,
            self.audit,
            server_domain_id=self.server_domain.domain_id,
        )

        # Tamper-evident agent integrity (hash-chained state appraisal +
        # itinerary commitments).  On by default; ``appraisal=False`` is
        # the escape hatch for baselines and deliberately non-verifying
        # (colluding) hosts in red-team scenarios.  The forked substream
        # keeps the itinerary MAC key from perturbing channel nonces.
        self.integrity: IntegrityAuthority | None = None
        if appraisal:
            self.integrity = IntegrityAuthority(
                name=name,
                keys=keys,
                certificate=certificate,
                trust_anchor=trust_anchor,
                clock=self.clock,
                rng=random.Random(rng.getrandbits(64)),
                verdicts=verdicts,
            )
            self.admission.integrity = self.integrity
        # Red-team hook (installed by the fault injector's malicious-host
        # behaviors): rewrites outbound images/destinations in _offer_image.
        self.outbound_tamper = None

        # Resource supervision (leases, bulkheads, quarantine, runaway
        # containment) is opt-in: with no config, proxies keep the plain
        # fast path and no supervision state exists at all.
        self.supervisor: ResourceSupervisor | None = None
        if supervision is not None:
            self.supervisor = ResourceSupervisor(self, supervision)
            self.registry.attach_supervisor(self.supervisor)

        self._domain_ids = IdGenerator(f"{name}/dom")
        self._threads: dict[str, SimThread] = {}
        # Live resident bookkeeping for the self-healing plane: the
        # instantiated agent objects (periodic checkpoint state capture)
        # and the images they were admitted from (escrow construction).
        self._instances: dict[str, Agent] = {}
        self._resident_images: dict[str, AgentImage] = {}
        # Auxiliary server threads (heartbeat rounds, checkpoint pushes,
        # crash-recovery re-offers, the drain worker).  Tracked so that
        # crash() kills them like everything else on the host — a ghost
        # recovery thread surviving a second crash would keep retrying
        # with the dead server's identity and hold call timers open.
        self._aux_threads: list[SimThread] = []
        self._draining = False
        # Home-side escrow store for the recovery plane.
        self.checkpoints = CheckpointStore()
        # Occupancy over virtual time (for capacity planning / F1-style
        # utilization reporting).
        self._occupancy = TimeWeighted(start_time=self.clock.now())

        self.secure.bind_app("atp.transfer", self._on_transfer)
        self.secure.bind_app("agent.status", self._on_status)
        self.secure.bind_app("agent.control", self._on_control)
        self.secure.bind_app("agent.report", self._on_report)

        # Cluster telemetry: this host's locally served metrics
        # namespace, where each of its counter sources is registered
        # once.  Sources are read lazily at scrape time, so none of this
        # touches the enforcement hot path; the ``telemetry.scrape`` op
        # rides the same mutually authenticated channels as transfers.
        self.telemetry = TelemetryUnit(name, self.clock, server=name)
        self.telemetry.register_source("server", self.stats)
        self.telemetry.register_source("endpoint", self.endpoint.stats)
        self.telemetry.register_source("secure", self.secure.stats)
        self.telemetry.register_source("audit", self.audit)
        self.telemetry.register_source("access", self.token_authority.stats)
        if self.supervisor is not None:
            self.telemetry.register_source("supervisor", self.supervisor.stats)
        if self.integrity is not None:
            self.telemetry.register_source("integrity", self.integrity.stats)
        self.telemetry.gauge(
            "server.residents", fn=lambda: float(len(self._threads))
        )
        self.telemetry.gauge(
            "server.secure_channels",
            fn=lambda: float(self.secure.open_channels()),
        )
        self.telemetry.bind(self.secure)

        # Self-healing control plane (opt-in per component): failure
        # detection over heartbeats, and checkpoint/re-homing recovery.
        # When both are present, confirmed deaths trigger re-homing.
        self.membership: FailureDetector | None = None
        self.recovery: RecoveryCoordinator | None = None
        if membership is not None:
            self.membership = FailureDetector(self, membership)
        if recovery:
            self.recovery = RecoveryCoordinator(self)
        if self.membership is not None and self.recovery is not None:
            self.membership.on_confirmed_dead(
                self.recovery.handle_confirmed_dead
            )
            self.membership.on_new_incarnation(
                self.recovery.handle_peer_restarted
            )

    # ------------------------------------------------------------------
    # Auxiliary server threads
    # ------------------------------------------------------------------

    def _spawn_aux(self, body, *, name: str) -> SimThread:
        """Run ``body`` in a tracked server-side simulated thread.

        Everything the server itself does off the kernel event loop —
        heartbeat rounds, checkpoint pushes, crash-recovery re-offers,
        draining — goes through here so :meth:`crash` can kill it all:
        a fail-stop host takes its background work down with it.
        """
        self._aux_threads = [t for t in self._aux_threads if t.is_alive]
        thread = SimThread(self.kernel, body, name=name, on_error="store")
        self._aux_threads.append(thread)
        thread.start()
        return thread

    # ------------------------------------------------------------------
    # Resources (server-side installation)
    # ------------------------------------------------------------------

    def install_resource(self, resource: ResourceImpl) -> None:
        """Register a server-provided resource (Fig. 6, step 1)."""
        with enter_group(self.server_domain.thread_group):
            self.binding.register_resource(resource)

    # ------------------------------------------------------------------
    # Hosting
    # ------------------------------------------------------------------

    def launch(self, image: AgentImage) -> str:
        """Host an agent submitted by a local application.

        Returns the new protection-domain id.  Raises if admission fails.

        With tracing on, this is the root span of the agent's tour
        (``agent.launch``): its context is stamped into the image, rides
        every subsequent hop like ``transfer_id`` does, and makes the
        whole itinerary one trace.
        """
        if self._draining:
            raise TransferError(f"{self.name} is draining")
        if self.integrity is not None:
            # Launch is where the home server seals the planned tour;
            # the commitment is re-appraised when the agent returns.
            image = self.integrity.commit_itinerary(image)
        with _obs.span(
            "agent.launch", agent=str(image.name), server=self.name
        ) as span:
            if span is not None and isinstance(image.attributes, dict) and (
                SpanContext.from_attributes(image.attributes.get("trace_ctx"))
                is None
            ):
                image = image.with_attributes(
                    trace_ctx=span.context.to_attributes()
                )
            self.admission.validate(image)
            return self._start_resident(image)

    def _start_resident(
        self, image: AgentImage, state_bytes: bytes | None = None
    ) -> str:
        """Admit ``image`` as a resident; ``state_bytes``, when given, is
        ``encode(image.state)`` (the received span, reused by the
        admission checkpoint)."""
        domain_id = self._domain_ids.next()
        group = ThreadGroup(f"{self.name}/{domain_id}")
        # Trust tier from admission (ring 1 unless a RingPolicy is
        # installed) — picks the proxy dispatch path for this stay.
        ring = self.admission.classify_ring(image)
        self.stats.add(f"admitted_ring{ring}")
        namespace = None
        if not image.is_trusted_code:
            namespace = AgentNamespace(
                domain_id,
                trusted={"Agent": Agent},
                policy=self.admission.verifier_policy,
                code_cache=self.admission.code_cache,
            )
        domain = ProtectionDomain(
            domain_id,
            "agent",
            group,
            namespace=namespace,
            credentials=image.credentials,
            ring=ring,
        )
        with self.domain_db.privileged():
            self.domain_db.admit(domain, image.credentials, image.home_site)
        self._update_name_service(image)
        thread = SimThread(
            self.kernel,
            wrap_in_group(group, lambda: self._run_resident(image, domain)),
            name=f"{self.name}/{image.name.local}",
            on_error="store",
        )
        group.adopt(thread)
        self._threads[domain_id] = thread
        self._resident_images[domain_id] = image
        self._occupancy.update(self.clock.now(), len(self._threads))
        thread.start()
        if self.resident_lifetime_limit is not None:
            self.kernel.schedule(
                self.resident_lifetime_limit,
                self._enforce_lifetime, domain_id, thread,
            )
        self.stats.add("agents_hosted")
        if self.recovery is not None:
            # Hop-boundary checkpoint: escrow the freshly admitted image
            # at the agent's home site before it runs a single step.
            self.recovery.on_admission(image, state_bytes)
        return domain_id

    def _enforce_lifetime(self, domain_id: str, thread: SimThread) -> None:
        """Kill a resident that overstayed its welcome (section 2: DoS)."""
        if not thread.is_alive or self._threads.get(domain_id) is not thread:
            return  # already departed/completed/terminated
        self.terminate_resident(domain_id)
        self.stats.add("agents_killed_lifetime")
        self.audit.record(
            domain_id, "agent.lifetime_limit", "", False,
            f"exceeded {self.resident_lifetime_limit}s residency",
        )

    def _update_name_service(self, image: AgentImage) -> None:
        token = image.attributes.get("ns_token")
        if self.name_service is None or not token:
            return
        if hasattr(self.name_service, "relocate_async"):
            # A remote registry: update over the network without blocking
            # the (kernel-context) arrival path.
            self.name_service.relocate_async(
                self.kernel, image.name, token, self.name,
                on_fail=lambda: self.stats.add("ns_relocate_failed"),
                audit=self.audit,
            )
            return
        try:
            self.name_service.relocate(image.name, token, self.name)
        except (NamingError, UnknownNameError):
            self.stats.add("ns_relocate_failed")

    # -- the resident's thread body -------------------------------------------

    # Bound on transfer_failed-hook retries per residency, so a buggy hook
    # cannot spin the server forever.
    MAX_TRANSFER_RETRIES = 8

    def _run_resident(self, image: AgentImage, domain: ProtectionDomain) -> None:
        """Executes inside the agent's thread group.

        With tracing on, the whole residency is one ``agent.resident``
        span parented on the trace context the image carried in — so a
        three-hop tour shows three resident spans in one trace, one per
        server.  Simulated threads run ``finally`` blocks even when
        killed, so the span closes on every exit path.
        """
        parent = None
        if isinstance(image.attributes, dict):
            parent = SpanContext.from_attributes(
                image.attributes.get("trace_ctx")
            )
        with _obs.span(
            "agent.resident",
            parent=parent,
            agent=str(image.name),
            server=self.name,
            hop=len(image.trace),
        ):
            try:
                instance = self._materialize(image, domain)
            except ReproError as exc:
                self.stats.add("agents_failed_materialize")
                self._retire(
                    domain, "terminated", f"materialization failed: {exc}"
                )
                return
            self._instances[domain.domain_id] = instance
            entry = getattr(instance, image.entry_method, None)
            if entry is None or not callable(entry):
                self.stats.add("agents_failed")
                self._retire(
                    domain, "terminated",
                    f"agent has no entry method {image.entry_method!r}",
                )
                return
            pending = entry
            retries = 0
            while True:
                try:
                    if domain.namespace is not None:
                        # Fresh Telescript-style execution budget per entry.
                        domain.namespace.reset_execution_budget()
                    result = pending()
                except Departure as departure:
                    failure = self._handle_departure(
                        image, instance, domain, departure
                    )
                    if failure is None:
                        return  # departed successfully
                    # Failure-tolerant itineraries: an agent defining a
                    # ``transfer_failed(destination, reason)`` hook gets a
                    # chance to re-route instead of being terminated.
                    hook = getattr(instance, "transfer_failed", None)
                    retries += 1
                    if callable(hook) and retries <= self.MAX_TRANSFER_RETRIES:
                        destination, reason = failure
                        pending = (  # noqa: E731
                            lambda d=destination, r=reason: hook(d, r)
                        )
                        continue
                    self.stats.add("agents_terminated_transfer")
                    self._retire(
                        domain, "terminated", f"transfer failed: {failure[1]}"
                    )
                    return
                except Completion as completion:
                    self._handle_completion(image, domain, completion.result)
                    return
                except SecurityException as exc:
                    self.stats.add("agents_killed_security")
                    self._retire(
                        domain, "terminated", f"security violation: {exc}"
                    )
                    return
                except Exception as exc:  # noqa: BLE001 - agent bugs stay contained
                    self.stats.add("agents_failed")
                    self._retire(domain, "terminated", f"agent error: {exc!r}")
                    return
                else:
                    # Falling off the end of the entry method is a completion.
                    self._handle_completion(image, domain, result)
                    return

    def _materialize(self, image: AgentImage, domain: ProtectionDomain) -> Agent:
        """Instantiate the agent's class and restore its shipped state."""
        if image.is_trusted_code:
            cls = trusted_agent_class(image.class_name)
        else:
            assert domain.namespace is not None
            domain.namespace.load(image.source)
            cls = domain.namespace.get(image.class_name)
        instance = cls()
        if not isinstance(instance, Agent):
            raise AgentStateError(
                f"{image.class_name!r} does not extend the Agent base class"
            )
        instance.restore_state(image.state)
        instance.host = AgentEnvironment(self, domain, image.home_site)
        instance.name = image.name
        return instance

    # -- outcomes ------------------------------------------------------------------

    def _handle_departure(
        self,
        image: AgentImage,
        instance: Agent,
        domain: ProtectionDomain,
        departure: Departure,
    ) -> "tuple[str, str] | None":
        """Attempt the transfer (with retries, exactly-once semantics).

        Returns None on success (the resident has departed), or
        ``(destination, reason)`` on failure — the caller decides whether
        the agent gets a ``transfer_failed`` second chance.

        Each departure gets a transfer id; retransmissions reuse it, so
        the receiver's dedup table acknowledges them idempotently.  The
        domain is retired only after a positive ``accepted`` ack.  The
        departure is journaled before the first network attempt so a
        crash mid-transfer can be recovered (:meth:`restart`).
        """
        with _obs.span(
            "transfer.depart",
            agent=str(image.name),
            server=self.name,
            destination=departure.destination,
        ) as span:
            failure = self._depart(image, instance, domain, departure, span)
            if failure is not None and span is not None and span.status == "unset":
                span.set_status("error", failure[1])
            return failure

    def _depart(
        self,
        image: AgentImage,
        instance: Agent,
        domain: ProtectionDomain,
        departure: Departure,
        span,
    ) -> "tuple[str, str] | None":
        destination = departure.destination
        outgoing = image.with_hop(self.name).with_state(
            instance.capture_state(), departure.method
        )
        if self.forward_restriction is not None:
            restricted = outgoing.credentials.extend(
                delegator=URN.parse(self.name),
                delegator_keys=self.secure.keys,
                delegator_certificate=self.secure.certificate,
                restriction=self.forward_restriction,
                now=self.clock.now(),
            )
            outgoing = dataclasses.replace(outgoing, credentials=restricted)
        transfer_id = self._transfer_ids.next()
        outgoing = outgoing.with_attributes(transfer_id=transfer_id)
        if span is not None:
            # Stamp the depart span's context into the image *before*
            # journaling: crash-recovery re-offers replay the journaled
            # image verbatim, and the remote residency must join this
            # trace either way.
            outgoing = outgoing.with_attributes(
                trace_ctx=span.context.to_attributes()
            )
            span.set_attribute("transfer_id", transfer_id)
        # The state is encoded once: the appraisal seal digests these
        # bytes and the offer embeds them in the wire image.
        state_bytes = encode(outgoing.state)
        if self.integrity is not None:
            # Seal the appraisal link *before* journaling, so crash
            # recovery re-offers the identical sealed image (a journal
            # replay must never append a second link for the same hop).
            outgoing = self.integrity.seal_departure(
                outgoing, destination, state_bytes
            )
        self._journal.record(
            transfer_id, outgoing, destination, domain.domain_id, self.clock.now()
        )
        try:
            reply = self._offer_image(outgoing, destination, state_bytes)
        except CircuitOpenError as exc:
            self._journal.resolve(transfer_id)
            self.stats.add("transfers_failed")
            self.stats.add("transfers_failed_breaker")
            return destination, str(exc)
        except ReproError as exc:
            self._journal.resolve(transfer_id)
            self.stats.add("transfers_failed")
            self.stats.add("transfers_failed_exhausted")
            return destination, str(exc)
        if reply.get("status") != "accepted":
            self._journal.resolve(transfer_id)
            self.stats.add("transfers_refused_remote")
            return (
                destination,
                f"refused by {destination}: {reply.get('reason', '?')}",
            )
        self._journal.resolve(transfer_id)
        self.stats.add("transfers_out")
        self._retire(domain, "departed", f"to {destination}")
        self._settle_bill(image, domain)
        return None

    # -- the retrying offer primitive (departures + crash recovery) ------------

    def _breaker_for(self, destination: str) -> CircuitBreaker:
        breaker = self._breakers.get(destination)
        if breaker is None:
            breaker = CircuitBreaker(
                self.clock,
                failure_threshold=BREAKER_FAILURE_THRESHOLD,
                reset_timeout=BREAKER_RESET_TIMEOUT,
            )
            self._breakers[destination] = breaker
        return breaker

    def _offer_image(
        self,
        image: AgentImage,
        destination: str,
        state_bytes: bytes | None = None,
    ) -> dict:
        """Offer ``image`` to ``destination`` under the retry policy.

        ``state_bytes``, if given, is ``encode(image.state)``.  Returns
        the decoded reply dict on any definitive answer.  Raises
        :class:`TransferRetryExhaustedError` once every attempt failed,
        or :class:`CircuitOpenError` when the destination's breaker
        refuses.  Must run in a simulated thread.
        """
        state = image.state
        if self.outbound_tamper is not None:
            # Red-team hook: a compromised host rewrites what it forwards.
            image, destination = self.outbound_tamper(image, destination)
        # The encoded state belongs to one state object: a rewritten
        # state is encoded afresh, so what the tamper made is what ships.
        payload = encode_image(
            image, state_bytes if image.state is state else None
        )

        def attempt(_: int) -> dict:
            self.stats.add("transfer_attempts")
            return decode(self.secure.call(
                destination, "atp.transfer", payload, self.transfer_timeout
            ))

        def note_retry(attempt_no: int, exc: BaseException) -> None:
            self.stats.add("transfer_retries")
            self.audit.record(
                self.name, "atp.retry", destination, True,
                f"attempt {attempt_no} retrying after: {exc}",
            )

        return call_with_retries(
            attempt,
            kernel=self.kernel,
            policy=self.transfer_retry,
            rng=self._retry_rng,
            retry_on=(NetworkError,),
            breaker=self._breaker_for(destination),
            on_retry=note_retry,
            exhausted=TransferRetryExhaustedError,
            describe=f"transfer to {destination}",
        )

    # -- the placement ladder (journal recovery, re-homing, drain) -------------

    def _place(
        self,
        offers: Iterable[tuple[str, AgentImage]],
        relaunch: Callable[[], AgentImage] | None = None,
    ) -> tuple[str, str]:
        """Place a displaced agent: offer it on, else relaunch it here.

        ``offers`` yields ``(target, image)`` pairs, advanced only after
        the previous offer failed, so a transfer id or appraisal link is
        built only for an offer actually made; the first ``accepted``
        wins.  If every offer failed, ``relaunch`` (if given) builds the
        image to start here, after the admission check every launch and
        arrival passes.  The one place a host relaunches an agent none
        of its residents holds.  Returns ``("placed", target)``,
        ``("relaunched", self.name)`` or ``("stranded", reasons)``;
        never raises :class:`ReproError`.  Runs in a simulated thread.
        """
        reasons = []
        for target, image in offers:
            try:
                reply = self._offer_image(image, target)
            except ReproError as exc:
                reasons.append(str(exc))
                continue
            if reply.get("status") == "accepted":
                return "placed", target
            reasons.append(f"refused by {target}: {reply.get('reason', '?')}")
        if relaunch is not None:
            try:
                image = relaunch()
                self.admission.validate(image)
                self._start_resident(image)
                return "relaunched", self.name
            except ReproError as exc:
                reasons.append(f"relaunch refused: {exc}")
        return "stranded", "; ".join(reasons) or "no target to offer"

    def _sealed_offers(
        self, image: AgentImage, targets: list[str], **attributes: Any
    ) -> Iterator[tuple[str, AgentImage]]:
        """Offers of ``image`` as a fresh handoff (re-homing, drain): each
        sealed for its target and stamped with a new transfer id plus
        ``attributes`` when the ladder reaches it."""
        for target in targets:
            offer = image
            if self.integrity is not None:
                offer = self.integrity.seal_departure(offer, target)
            yield target, offer.with_attributes(
                transfer_id=self._transfer_ids.next(), **attributes
            )

    def _handle_completion(
        self, image: AgentImage, domain: ProtectionDomain, result: Any
    ) -> None:
        self.stats.add("agents_completed")
        self._retire(domain, "completed", "mission complete")
        # The completion report and the bill go to the same home site, so
        # they ride one sealed batch frame (one MAC, one sequence number)
        # instead of two secure sends.
        payloads: list[Any] = []
        if result is not None and image.home_site != self.name:
            payloads.append(result)
        bill = self._bill_payload(image, domain)
        if bill is not None:
            payloads.append(bill)
        if not payloads:
            return
        try:
            self.send_agent_reports(domain, image.home_site, payloads)
            if bill is not None:
                self.stats.add("bills_sent")
        except ReproError:
            self.stats.add("reports_failed")

    def _bill_payload(
        self, image: AgentImage, domain: ProtectionDomain
    ) -> "dict[str, Any] | None":
        try:
            record = self.domain_db.get(domain.domain_id)
        except ReproError:
            return None
        if record.charges <= 0 or image.home_site == self.name:
            return None
        return {"type": "bill", "server": self.name, "charges": record.charges}

    def _settle_bill(self, image: AgentImage, domain: ProtectionDomain) -> None:
        """Section 2's electronic-commerce hook: when a resident leaves
        with accrued charges, its home site receives the statement.

        Runs only on the agent-thread paths (it may block on a secure
        channel); forcible terminations leave the account queryable in the
        domain database instead.
        """
        bill = self._bill_payload(image, domain)
        if bill is None:
            return
        try:
            self.send_agent_report(domain, image.home_site, bill)
            self.stats.add("bills_sent")
        except ReproError:
            self.stats.add("reports_failed")

    def _retire(self, domain: ProtectionDomain, status: str, detail: str) -> None:
        # A terminated or completed agent's capability tokens die with it
        # (one holder-epoch bump reaches copies on every server).  A
        # *departing* agent keeps its tokens — surviving migration is the
        # point of carrying them.
        image = self._teardown(
            domain.domain_id, status, revoke=status != "departed"
        )
        self.audit.record(domain.domain_id, "agent.retire", status, True, detail)
        if self.recovery is not None and image is not None:
            # Tell the home site to drop the escrow of a finished agent
            # (a departed one is superseded by the next host instead).
            self.recovery.on_resident_gone(image, status)

    def _kill_group(self, domain_id: str) -> bool:
        """Kill a resident's main thread, then every live worker.

        The whole thread *group* dies: workers the agent spawned
        (section 5.3: same group) must not survive it.  Returns False
        when nothing of the resident was alive.
        """
        thread = self._threads.get(domain_id)
        victims = [thread] if thread is not None and thread.is_alive else []
        if domain_id in self.domain_db:
            # An ended residency's group lives on only through threads
            # still running in it (a departed agent's lingering worker).
            group = self.domain_db.get(domain_id).thread_group
            if group is not None:
                victims += [t for t in group.live_threads() if t is not thread]
        for victim in victims:
            if victim.is_alive:
                victim.kill()
        return bool(victims)

    def _teardown(
        self, domain_id: str, status: str, *, revoke: bool
    ) -> AgentImage | None:
        """End a resident's protection domain; returns its admitted image.

        Every way a residency ends (retirement, eviction, termination,
        crash, drain) undoes the same bookkeeping here.  Callers keep
        their own audit record and tell the recovery plane, if at all.
        The domain record becomes a tombstone and the binding context is
        dropped, so nothing here keeps the domain, its thread group,
        namespace or proxies alive.
        """
        with self.domain_db.privileged():
            if domain_id in self.domain_db:
                self.domain_db.set_status(domain_id, status)
                if revoke:
                    # The agent stopped existing: one holder-epoch bump
                    # on its stable URN stales every token it was minted,
                    # here or on any host of the world.
                    self.token_authority.bump_holder(
                        str(self.domain_db.get(domain_id).agent)
                    )
        self.binding.forget_domain(domain_id)
        # Ephemeral self-registrations (mailboxes) die with the agent;
        # installed services (section 5.5) persist.
        self.registry.remove_ephemeral_of(domain_id)
        self._threads.pop(domain_id, None)
        self._instances.pop(domain_id, None)
        image = self._resident_images.pop(domain_id, None)
        self._occupancy.update(self.clock.now(), len(self._threads))
        if self.supervisor is not None:
            self.supervisor.forget_domain(domain_id)
        return image

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------

    def send_agent_report(
        self, domain: ProtectionDomain, home_site: str, payload: Any
    ) -> None:
        """Deliver a report to ``home_site`` (local append or secure send)."""
        self.send_agent_reports(domain, home_site, [payload])

    def send_agent_reports(
        self, domain: ProtectionDomain, home_site: str, payloads: list[Any]
    ) -> None:
        """Deliver several reports to the same ``home_site``.

        Remote delivery amortizes the secure channel: a multi-payload
        batch travels as one sealed frame (``SecureChannel.send_many``)
        instead of one MAC + sequence number per report.
        """
        assert domain.credentials is not None
        bodies = []
        for payload in payloads:
            body = {
                "agent": str(domain.credentials.agent),
                "from": self.name,
                "payload": payload,
            }
            if home_site == self.name:
                body["received_at"] = self.clock.now()
                self.reports.append(body)
            else:
                bodies.append(encode(body))
        if not bodies:
            return

        def attempt(_: int) -> None:
            self.stats.add("report_attempts")
            self.secure.send(home_site, "agent.report", bodies)

        def note_retry(attempt_no: int, exc: BaseException) -> None:
            self.stats.add("report_retries")

        with _obs.span(
            "report.send", server=self.name, destination=home_site,
            reports=len(bodies),
        ):
            call_with_retries(
                attempt,
                kernel=self.kernel,
                policy=_REPORT_RETRY,
                rng=self._retry_rng,
                retry_on=(NetworkError,),
                on_retry=note_retry,
                describe=f"report to {home_site}",
            )

    def _on_report(self, peer: str, body: bytes) -> None:
        try:
            report = decode(body)
        except ReproError:
            report = None
        if not isinstance(report, dict):
            # Undecodable, or a decodable non-report (a list, a bare
            # value): counted and dropped, never raised into the channel,
            # where it would also drop the rest of a send_many batch.
            self.stats.add("reports_malformed")
            return
        report["via"] = peer
        report["received_at"] = self.clock.now()
        self.reports.append(report)

    # ------------------------------------------------------------------
    # Transfer protocol (receiver side)
    # ------------------------------------------------------------------

    def _on_transfer(self, peer: str, body: bytes) -> bytes:
        with _obs.span(
            "transfer.admit", server=self.name, peer=peer
        ) as span:
            # Offered wire bytes, whatever the verdict — capacity planning
            # wants to see refused load too.  One bisect; transfers are
            # crypto-dominated, so this is noise on the transfer path.
            self.telemetry.observe("transfer_bytes", len(body))
            if (
                self.integrity is not None
                and self.integrity.quarantine.blocked_name(peer)
            ):
                # A quarantined upstream host gets a fast refusal before this
                # server spends any decode/verification work on its offer.
                self.stats.add("transfers_refused")
                self.stats.add("transfers_refused_quarantined")
                if span is not None:
                    span.set_status("error", f"refused: {peer} is quarantined")
                self.audit.record(
                    peer, "atp.quarantine", "", False,
                    "transfer refused: sender is quarantined",
                )
                return encode({"status": "refused", "reason": "sender quarantined"})
            tid: str | None = None
            try:
                image, state_bytes = decode_image(body)
                if span is not None:
                    if isinstance(image.attributes, dict):
                        carried = SpanContext.from_attributes(
                            image.attributes.get("trace_ctx")
                        )
                        if carried is not None:
                            # Join the trace the sender stamped on the image
                            # (learned only now — after the span opened).
                            span.adopt_context(carried)
                    span.set_attribute("agent", str(image.name))
                # Idempotent receive: a retransmission of a transfer this
                # server already answered (lost ack, sender retry or crash
                # recovery) gets the cached reply — the agent is not admitted
                # twice.  The key includes the authenticated peer, so one
                # sender cannot poison another's entries.
                tid = image.transfer_id
                if tid is not None and 0 < len(tid) <= 128:
                    cached = self._transfer_dedup.get((peer, tid))
                    if cached is not None:
                        self.stats.add("transfers_duplicate_suppressed")
                        if span is not None:
                            # A retransmission, not a fresh hop: no resident
                            # span is started, the trace shows an event.
                            span.set_attribute("duplicate", True)
                            _obs.TRACER.add_event(
                                "transfer.duplicate", transfer_id=tid
                            )
                        self.audit.record(
                            peer, "atp.dedup", str(image.name), True,
                            f"duplicate transfer {tid} answered from cache",
                        )
                        return cached
                else:
                    tid = None
                if self._draining:
                    # Past the dedup lookup on purpose: a retransmission of
                    # a transfer this server accepted *before* it started
                    # draining must still get its cached "accepted".
                    self.stats.add("transfers_refused_draining")
                    raise TransferError("server draining")
                self.admission.validate(
                    image, wire_size=len(body), peer=peer, state_bytes=state_bytes
                )
            except AgentIntegrityError as exc:
                return self._reject_integrity(peer, tid, span, exc)
            except ReproError as exc:
                self.stats.add("transfers_refused")
                if span is not None:
                    span.set_status("error", f"refused: {exc}")
                if isinstance(exc, AgentAttributeError):
                    # The whitelist refusal gets its own audit operation so
                    # operators can tell malformed-attribute probes apart
                    # from ordinary admission denials.
                    self.audit.record(
                        peer, "agent.attributes_reject",
                        str(exc.context.get("key", "")), False, str(exc),
                    )
                self.audit.record(peer, "atp.admit", "", False, str(exc))
                reply = encode({"status": "refused", "reason": str(exc)})
                if tid is not None:
                    self._transfer_dedup.put((peer, tid), reply)
                return reply
            self.stats.add("transfers_in")
            self.audit.record(peer, "atp.admit", str(image.name), True, "")
            if self.integrity is not None:
                chain = image.attributes.get(APPRAISAL_ATTRIBUTE)
                if chain:
                    # Only a fully admitted image enters the replay record —
                    # recording earlier would let an image refused for other
                    # reasons poison its own legitimate retry.
                    self.integrity.remember(chain[-1].tag())
            self._start_resident(image, state_bytes)
            reply = encode({"status": "accepted"})
            if tid is not None:
                self._transfer_dedup.put((peer, tid), reply)
            return reply

    def _reject_integrity(
        self, peer: str, tid: str | None, span, exc: AgentIntegrityError
    ) -> bytes:
        """Integrity rejection: quarantine upstream, kill carried tokens,
        audit and trace the event, and cache the refusal for retries."""
        reason = str(exc.context.get("reason", "unknown"))
        agent = exc.context.get("agent")
        fingerprint = exc.context.get("fingerprint")
        self.stats.add("transfers_refused")
        self.stats.add("transfers_refused_integrity")
        assert self.integrity is not None
        self.integrity.quarantine.add(
            peer, str(fingerprint) if fingerprint else None
        )
        self.stats.add("hosts_quarantined")
        if agent is not None:
            # A tampered agent's carried capability tokens die with it:
            # one holder-epoch bump makes every copy stale federation-wide
            # (redemption falls back to full authorization, which the
            # quarantined impostor cannot pass).
            self.token_authority.bump_holder(str(agent))
        detail = f"{reason}: {exc}"
        if span is not None:
            span.set_status("error", f"refused: {exc}")
        with _obs.span(
            "agent.integrity_reject",
            agent=str(agent or ""),
            peer=peer,
            reason=reason,
        ) as reject_span:
            if reject_span is not None:
                reject_span.set_status("error", str(exc))
            self.audit.record(
                peer, "agent.integrity_reject", str(agent or ""), False, detail
            )
        reply = encode({"status": "refused", "reason": str(exc)})
        if tid is not None:
            self._transfer_dedup.put((peer, tid), reply)
        return reply

    # ------------------------------------------------------------------
    # Status queries and control commands (section 4 / domain database)
    # ------------------------------------------------------------------

    def resident_status(self, agent: URN) -> dict[str, Any]:
        """Local status lookup (what the status handler serves remotely).

        Answers for a running agent and for one whose residency is still
        among the server's remembered tombstones; an agent older than
        that ring raises :class:`~repro.errors.UnknownNameError`.
        """
        record = self.domain_db.by_agent(agent)
        return {
            "agent": str(record.agent),
            "server": self.name,
            "status": record.status,
            "owner": str(record.owner),
            "arrived_at": record.arrived_at,
            "charges": record.charges,
            "bindings": record.binding_count,
        }

    def _on_status(self, peer: str, body: bytes) -> bytes:
        try:
            query = decode(body)
            agent = query["agent"]
            if isinstance(agent, str):
                agent = URN.parse(agent)
            return encode(self.resident_status(agent))
        except (ReproError, KeyError, TypeError) as exc:
            return encode({"error": str(exc)})

    def _on_control(self, peer: str, body: bytes) -> bytes:
        """Owner control commands; only the agent's home site may issue them."""
        try:
            command = decode(body)
            agent = command["agent"]
            if isinstance(agent, str):
                agent = URN.parse(agent)
            record = self.domain_db.by_agent(agent)
        except (ReproError, KeyError, TypeError) as exc:
            return encode({"error": str(exc)})
        if peer != record.home_site:
            self.stats.add("control_refused")
            self.audit.record(
                peer, "agent.control", str(agent), False, "not the home site"
            )
            return encode({"error": "only the agent's home site may control it"})
        if command.get("command") != "terminate":
            return encode({"error": f"unknown command {command.get('command')!r}"})
        if self.terminate_resident(record.domain_id):
            self.stats.add("agents_terminated_by_owner")
            self.audit.record(peer, "agent.control", str(agent), True, "terminate")
            return encode({"status": "terminated"})
        return encode({"status": record.status})

    def terminate_resident(self, domain_id: str) -> bool:
        """Forcibly end a live resident (trusted callers only).

        Returns True if a live thread was killed; False if the resident
        had already finished.  Authorization is the caller's problem —
        the control handler checks the home site, the agent environment
        checks creator identity.
        """
        if not self._kill_group(domain_id):
            return False
        image = self._teardown(domain_id, "terminated", revoke=True)
        if self.recovery is not None and image is not None:
            self.recovery.on_resident_gone(image, "terminated")
        return True

    # ------------------------------------------------------------------
    # Crash and recovery (failure model: fail-stop with stable storage)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate an abrupt fail-stop crash.

        Every resident thread dies mid-flight, the server's network
        presence disappears (the endpoint closes, so peers see timeouts)
        and the channel session keys are lost.  The departure journal
        and the dedup table survive — they stand in for records on
        stable storage, which is what makes :meth:`restart` able to
        recover in-flight transfers.
        """
        self.stats.add("crashes")
        self.audit.record(self.name, "server.crash", "", False, "simulated crash")
        for domain_id, thread in list(self._threads.items()):
            if thread.is_alive:
                self.stats.add("agents_killed_crash")
            self._kill_group(domain_id)
            # Neither revoke tokens nor retire the escrow: re-homing
            # relaunches the agent from that escrow, tokens and all.
            self._teardown(domain_id, "terminated", revoke=False)
        # Aux threads die with the host: a heartbeat round, checkpoint
        # push, drain worker or leftover recovery re-offer from an
        # earlier restart must not keep acting (or holding in-flight
        # call timers) in the dead server's name.  Killing interrupts
        # each at its next blocking point; the channel-call ``finally``
        # blocks cancel their reply timers on the way out.
        for aux in self._aux_threads:
            if aux.is_alive:
                aux.kill()
        self._aux_threads.clear()
        if self.membership is not None:
            self.membership.stop()
        if self.recovery is not None:
            self.recovery.stop()
        if self.supervisor is not None:
            self.supervisor.on_crash()
        self.secure.reset_channels()
        self.endpoint.close()

    def restart(self) -> None:
        """Bring a crashed server back and recover journaled departures.

        Reopens the endpoint, then spawns one recovery thread per
        in-flight departure record (see :meth:`_recover_departure`).
        Only meaningful after :meth:`crash`.
        """
        if self.endpoint.is_open:
            raise ReproError(f"{self.name}: restart() requires a crashed server")
        self.stats.add("restarts")
        self.endpoint.open()
        if self.membership is not None:
            # A new life: peers that confirmed this server dead only
            # believe heartbeats carrying a *higher* incarnation.
            self.membership.bump_incarnation()
            self.membership.start()
        if self.recovery is not None:
            self.recovery.start()
        if self.supervisor is not None:
            # Re-validate surviving leases from the domain database and
            # sweep the ones that lapsed while the server was down.
            self.supervisor.sweep_leases()
        pending = self._journal.pending()
        self.audit.record(
            self.name, "server.restart", "", True,
            f"recovering {len(pending)} in-flight departure(s)",
        )
        for record in pending:
            self._spawn_aux(
                lambda r=record: self._recover_departure(r),
                name=f"{self.name}/recover/{record.transfer_id}",
            )

    def _recover_departure(self, record: DepartureRecord) -> None:
        """:meth:`_recover` one journaled in-flight departure after a
        restart, inside its ``transfer.recover`` span."""
        parent = None
        if isinstance(record.image.attributes, dict):
            parent = SpanContext.from_attributes(
                record.image.attributes.get("trace_ctx")
            )
        with _obs.span(
            "transfer.recover",
            parent=parent,
            agent=str(record.image.name),
            server=self.name,
            destination=record.destination,
            transfer_id=record.transfer_id,
        ):
            self._recover(record)

    def _recover(self, record: DepartureRecord) -> tuple[str, str]:
        """Dispose of one journaled departure through the placement ladder.

        Re-offer with the *same* transfer id — if the pre-crash offer
        landed, the receiver's dedup table answers ``accepted``
        idempotently.  Then offer the agent to its home site under a
        fresh id, or relaunch it when this server *is* home.  Returns the
        ladder's verdict, or ``("superseded", "")``.  Drain shares this
        to finish a caught departure, untraced.
        """
        self.stats.add("recoveries_attempted")
        # While this server was dead, the home site's escrow re-homing
        # may already have relaunched the agent elsewhere: a directory
        # location other than here or the journaled destination means a
        # newer residency exists, and re-offering would fork the agent.
        if directory_vetoes(
            self.name_service, record.image.name,
            (self.name, record.destination),
        ):
            self._journal.resolve(record.transfer_id)
            self.stats.add("recoveries_superseded")
            self.audit.record(
                self.name, "atp.recover", str(record.image.name), True,
                "journal entry superseded: the agent was re-homed (or "
                "finished) while this server was down",
            )
            return "superseded", ""
        image = record.image.with_attributes(returned_home=True)
        home = image.home_site
        home_offered = False

        def reseal(image: AgentImage, destination: str) -> AgentImage:
            # The journaled tip was sealed for the journaled destination;
            # a different hop (same index, fresh timestamp) re-seals it,
            # or the chain's hop-to-hop linkage breaks at the next hop.
            if self.integrity is not None:
                image = self.integrity.reseal_tip(image, destination)
            return image

        def offers() -> Iterator[tuple[str, AgentImage]]:
            nonlocal home_offered
            yield record.destination, record.image
            if home != self.name:
                home_offered = True
                yield home, reseal(
                    image.with_attributes(transfer_id=self._transfer_ids.next()),
                    home,
                )

        outcome, where = self._place(
            offers(),
            (lambda: reseal(image, self.name)) if home == self.name else None,
        )
        self._journal.resolve(record.transfer_id)
        delivered = outcome == "placed" and not home_offered
        if delivered:
            self.stats.add("recoveries_delivered")
            with self.domain_db.privileged():
                if record.domain_id in self.domain_db:
                    self.domain_db.set_status(record.domain_id, "departed")
        else:
            # A stranded agent gets no tombstone: the home site's escrow
            # may still rescue it.
            self.stats.add(
                "recovery_stranded" if outcome == "stranded"
                else "recoveries_returned_home"
            )
        self.audit.record(
            self.name, "atp.recover", str(image.name), outcome != "stranded",
            f"re-offered to {where}" if delivered else {
                "placed": f"returned to home site {where} after crash",
                "relaunched": "relaunched at home after crash",
            }.get(outcome, f"unrecoverable: {where}"),
        )
        return outcome, where

    # ------------------------------------------------------------------
    # Graceful drain (planned decommissioning)
    # ------------------------------------------------------------------

    def drain(self) -> SimThread:
        """Gracefully decommission: migrate every resident to a survivor.

        Immediately stops accepting new work (local launches raise, ATP
        offers get a typed ``server draining`` refusal that the sender's
        ``transfer_failed`` routing can skip past) and advertises the
        draining flag in heartbeats so the recovery plane stops placing
        agents here.  The migration itself runs in an aux thread (it
        blocks on transfers); the returned thread can be joined, or the
        kernel simply run until the world quiesces.

        Residents are moved with the same load-aware placement scorer
        re-homing uses: each is stopped at its next blocking point, its
        live state captured, and the sealed image offered to the least
        loaded surviving planned stop.  A resident caught mid-departure
        is finished via the journal (same transfer id — the dedup table
        absorbs the duplicate).  Both go through the placement ladder
        (:meth:`_place`): one nobody accepts is relaunched locally if it
        passes admission, else stranded, and either way the drain is
        reported failed for it and goes on to the next resident.
        """
        self._draining = True
        if self.membership is not None:
            self.membership.draining = True
        self.stats.add("drains")
        self.audit.record(self.name, "server.drain", "", True, "drain initiated")
        return self._spawn_aux(self._drain_residents, name=f"{self.name}/drain")

    def _drain_residents(self) -> None:
        for domain_id, thread in list(self._threads.items()):
            self._drain_one(domain_id, thread)

    def _drain_one(self, domain_id: str, thread: SimThread) -> None:
        if self._threads.get(domain_id) is not thread:
            return  # already gone
        image = self._resident_images.get(domain_id)
        instance = self._instances.get(domain_id)
        self._kill_group(domain_id)
        thread.join(reraise=False)
        if self._threads.get(domain_id) is not thread:
            # The resident retired itself on the way out (its departure
            # or completion won the race against the kill): nothing of
            # it is left here to migrate.
            return

        # The resident's entries stay until the ladder returns, so a
        # home-side probe made during the offers still answers
        # "resident" and cannot trigger a duplicate re-home.
        record = next(
            (r for r in self._journal.pending() if r.domain_id == domain_id),
            None,
        )
        if record is not None:
            # Caught mid-departure, after journaling: dispose of the
            # journaled in-flight image exactly like crash recovery does
            # (same transfer id, so a landed pre-kill offer dedups).
            self.stats.add("agents_killed_drain")
            outcome, where = self._recover(record)
        else:
            # A resident killed before it materialized leaves with the
            # state it arrived with.
            try:
                state = image.state if instance is None else instance.capture_state()
            except ReproError:
                state = image.state
            outgoing = image.with_hop(self.name).with_state(
                state, image.entry_method
            )
            recovery = self.recovery
            targets = recovery.pick_targets(outgoing, set()) if recovery else []
            # The fallback relaunches the *admitted* image shape (no extra
            # hop: the appraisal chain must stay aligned with the trace
            # for the agent's eventual real departure), with live state.
            outcome, where = self._place(
                self._sealed_offers(outgoing, targets),
                lambda: image.with_state(state, image.entry_method),
            )
            if outcome == "placed":
                # Accounting-wise an ordinary departure: hosted here
                # once, transferred out once, hosted again at the target.
                self.stats.add("transfers_out")
                self.stats.add("drained_out")
            else:
                self.stats.add("agents_killed_drain")
                self.stats.add("drain_failed")
        # A stranded agent keeps its tokens and escrow: no tombstone, the
        # home site's escrow may still rescue it.
        status = "terminated" if outcome == "stranded" else "departed"
        self._teardown(domain_id, status, revoke=False)
        via = "via journal " if record is not None else ""
        detail = {
            "placed": f"drained {via}to {where}",
            "superseded": "drained via journal: superseded elsewhere",
            "relaunched": "drain failed: relaunched locally",
        }.get(outcome, f"drain failed: {where}")
        self.audit.record(
            domain_id, "agent.drain", status,
            outcome in ("placed", "superseded"), detail,
        )

    # ------------------------------------------------------------------
    # Operator reporting
    # ------------------------------------------------------------------

    def current_residents(self) -> int:
        """Agents currently executing (or blocked) on this server."""
        return len(self._threads)

    def average_residents(self) -> float:
        """Time-weighted mean resident count since the server started."""
        return self._occupancy.average(self.clock.now())

    def security_report(self) -> dict[str, Any]:
        """Summary of mediated denials and hostile activity on this server.

        The reference monitor's audit trail, aggregated: what operators
        would watch to notice an attack campaign.
        """
        denials_by_domain: dict[str, int] = {}
        denials_by_operation: dict[str, int] = {}
        for record in self.audit.denials():
            denials_by_domain[record.domain] = (
                denials_by_domain.get(record.domain, 0) + 1
            )
            denials_by_operation[record.operation] = (
                denials_by_operation.get(record.operation, 0) + 1
            )
        return {
            "server": self.name,
            "denials_total": len(self.audit.denials()),
            "denials_by_domain": denials_by_domain,
            "denials_by_operation": denials_by_operation,
            "transfers_refused": self.stats["transfers_refused"],
            "agents_killed_security": self.stats["agents_killed_security"],
            "control_refused": self.stats["control_refused"],
            "channel_frames_rejected": (
                self.secure.stats["rejected_tampered"]
                + self.secure.stats["rejected_replayed"]
                + self.secure.stats["rejected_malformed"]
            ),
            # Frames naming no channel held here: a tampered clear channel
            # id, or a restarted peer's stale traffic, which no counter
            # can tell apart, so they are not counted as rejected.
            "channel_frames_unroutable": self.secure.stats["unknown_channel"],
            "transfers_refused_integrity": self.stats[
                "transfers_refused_integrity"
            ],
            "integrity": (
                self.integrity.report() if self.integrity is not None else None
            ),
            "supervision": (
                self.supervisor.report() if self.supervisor is not None else None
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AgentServer({self.name!r}, residents={len(self.domain_db.residents())})"
