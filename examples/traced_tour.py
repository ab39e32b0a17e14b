#!/usr/bin/env python
"""Flight-recorder demo: one trace across a lossy multi-server tour.

A courier agent tours four servers over links that drop 15% of frames
(plus an injected loss burst on the first leg), then binds a mailbox
buffer on the final server through the six-step protocol of Fig. 6 and
deposits a message.  Tracing is on for the whole run, so the *entire*
journey — launch, admissions, hops, retransmissions, binding, proxy
invocations — is a single causally-ordered trace.

Run:  python examples/traced_tour.py [output-dir]

Writes to the output dir (default: a fresh temp dir):
  trace.json   Chrome trace-event file (load in chrome://tracing or Perfetto)
  trace.jsonl  one finished span per line, for ad-hoc jq/grep analysis
  scrape.txt   every host's counters (and the world's faults.*), as text

Exits non-zero if any span is left unclosed or the scrape carries no
``access.*`` counter — CI runs this as the tracing smoke test.
"""

import pathlib
import sys
import tempfile

from repro.agents.agent import Agent, register_trusted_agent_class
from repro.apps.buffer import Buffer
from repro.core.policy import PolicyRule, SecurityPolicy
from repro.credentials.rights import Rights
from repro.naming.urn import URN
from repro.server.testbed import Testbed
from repro.util.retry import RetryPolicy

MAILBOX = "urn:resource:site3.net/mailbox"


@register_trusted_agent_class
class TouringCourier(Agent):
    """Hops every server, then delivers a message at the last one."""

    def __init__(self) -> None:
        self.hops: list[str] = []
        self.message = ""

    def run(self):
        if self.hops:
            self.go(self.hops.pop(0), "run")
        mailbox = self.host.get_resource(MAILBOX)
        mailbox.put(self.message)
        self.complete({"delivered_at": self.host.server_name(),
                       "mailbox_size": mailbox.size()})


def main() -> None:
    out = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                       else tempfile.mkdtemp(prefix="traced_tour_"))
    out.mkdir(parents=True, exist_ok=True)

    # 1. A lossy four-server world, with the flight recorder running.
    bed = Testbed(
        4,
        seed=1000,
        loss_rate=0.15,
        server_kwargs={
            "transfer_timeout": 30.0,
            "transfer_retry": RetryPolicy(attempts=8, base_delay=1.0,
                                          jitter=0.25),
        },
    )
    recorder = bed.start_tracing()
    # Extra adversity on the first leg, annotated into the trace.
    bed.faults().loss_burst(bed.home.name, bed.servers[1].name,
                            at=0.0, duration=5.0, loss_rate=0.5)

    # 2. The final server exports the mailbox (Fig. 6 step 1, traced).
    policy = SecurityPolicy(rules=[PolicyRule(
        "any", "*",
        Rights.of("Buffer.put", "Buffer.size", "Buffer.resource_*"),
        rule_id="mailbox-open",
    )])
    bed.servers[3].install_resource(Buffer(
        URN.parse(MAILBOX),
        URN.parse("urn:principal:site3.net/postmaster"),
        policy,
        capacity=16,
    ))

    # 3. Launch the courier and run the world.
    courier = TouringCourier()
    courier.hops = [s.name for s in bed.servers[1:]]
    courier.message = "hello from a traced mobile agent"
    image = bed.launch(courier, Rights.of("Buffer.*"))
    bed.run(detect_deadlock=False)
    bed.stop_tracing()

    # 4. Interrogate the flight recorder.
    recorder.assert_no_open_spans()  # non-zero exit on a span leak
    spans = recorder.trace_of(image.name)  # raises unless exactly 1 trace
    residents = [s for s in spans if s.name == "agent.resident"]
    servers_spanned = [s.attributes["server"] for s in residents]
    steps = recorder.protocol_steps(image.name)
    step_numbers = [n for n, _ in steps]
    recorder.assert_causal_order(span for _, span in steps[1:])
    retries = sum(
        1 for s in spans for name in s.event_names() if name == "retry"
    )
    admissions = [s for s in spans if s.name == "admission.validate"]
    invocations = [s for s in spans if s.name == "proxy.invoke"]
    assert set(step_numbers) == {1, 2, 3, 4, 5, 6}, step_numbers

    print(f"single trace {spans[0].trace_id}: {len(spans)} spans")
    print(f"tour spans {len(set(servers_spanned))} server(s): "
          + " -> ".join(s.rsplit('/', 1)[-1] for s in servers_spanned))
    print(f"admissions traced: {len(admissions)}")
    print(f"all six protocol steps reconstructed: {sorted(set(step_numbers))}")
    print(f"proxy invocations: {len(invocations)} "
          f"({', '.join(s.attributes['method'] for s in invocations)})")
    print(f"retransmissions recorded as retry events: {retries}")
    print("unclosed spans: 0")

    # 5. Export the artifacts.
    recorder.export_chrome(str(out / "trace.json"))
    recorder.export_jsonl(str(out / "trace.jsonl"))
    scrape = bed.render_metrics()
    # Every counter is a host's: the mailbox host's access counts are in.
    assert "access." in scrape, "no access.* counters scraped"
    (out / "scrape.txt").write_text(scrape + "\n")
    print(f"artifacts in {out}: trace.json trace.jsonl scrape.txt")


if __name__ == "__main__":
    main()
