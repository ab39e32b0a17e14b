"""``python -m repro`` — self-demonstration and telemetry tooling.

With no arguments: builds a one-server world, runs the paper's
bounded-buffer scenario with a restricted proxy, and prints what
happened.  A smoke test for fresh installs.

``python -m repro telemetry …`` works on *files* — saved snapshots and
trace exports — with no testbed or kernel required:

* ``telemetry print SNAP.json`` — pretty-print a scrape (a
  :class:`~repro.obs.aggregate.MetricSnapshot` JSON or a plain
  flattened-scrape dict);
* ``telemetry diff OLD.json NEW.json`` — what moved between two
  snapshots of the same origin (counter deltas with restart handling,
  gauge was/now, histogram observation deltas);
* ``telemetry chrome TRACE.jsonl [-o OUT.json]`` — convert a span JSONL
  export to Chrome trace-event JSON (``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any


def demo() -> None:
    import repro
    from repro import (
        Agent,
        PolicyRule,
        Rights,
        SecurityPolicy,
        Testbed,
        URN,
        register_trusted_agent_class,
    )
    from repro.apps.buffer import Buffer
    from repro.errors import MethodDisabledError

    print(f"repro {repro.__version__} — Ajanta protected resource access "
          f"(Tripathi & Karnik, ICPP 1998)\n")

    bed = Testbed(n_servers=1)
    mailbox = Buffer(
        URN.parse("urn:resource:site0.net/demo"),
        URN.parse("urn:principal:site0.net/owner"),
        SecurityPolicy(rules=[
            PolicyRule("any", "*", Rights.of("Buffer.put", "Buffer.size")),
        ]),
        capacity=4,
    )
    bed.home.install_resource(mailbox)

    @register_trusted_agent_class
    class DemoAgent(Agent):
        def run(self):
            proxy = self.host.get_resource("urn:resource:site0.net/demo")
            proxy.put("it works")
            try:
                proxy.get()
            except MethodDisabledError:
                self.host.log("get() correctly denied")
            self.complete()

    image = bed.launch(DemoAgent(), rights=Rights.of("Buffer.*"))
    bed.run()

    status = bed.home.resident_status(image.name)
    print(f"server:        {bed.home.name}")
    print(f"agent:         {image.name} -> {status['status']}")
    print(f"buffer holds:  {mailbox.get()!r}")
    denied = bed.home.audit.records(operation="proxy.invoke", allowed=False)
    print(f"denied calls:  {[r.target for r in denied]}")
    print("\neverything working. next: python examples/quickstart.py")


# ---------------------------------------------------------------------------
# telemetry subcommands (file-based; no testbed)
# ---------------------------------------------------------------------------


def _load_snapshot(path: str):
    from repro.obs.aggregate import MetricSnapshot

    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    data = json.loads(text)
    if isinstance(data, dict) and "counters" in data and "origin" in data:
        return MetricSnapshot.from_json(text)
    return data  # a plain flattened-scrape dict


def telemetry_print(path: str, out=None) -> int:
    from repro.obs.aggregate import MetricSnapshot
    from repro.obs.metrics import render_scrape

    out = out if out is not None else sys.stdout
    loaded = _load_snapshot(path)
    if isinstance(loaded, MetricSnapshot):
        out.write(f"# origin={loaded.origin} "
                  f"captured_at={loaded.captured_at:g}\n")
        out.write(render_scrape(loaded.scrape()))
    else:
        out.write(render_scrape(loaded))
    return 0


def telemetry_diff(old_path: str, new_path: str, out=None) -> int:
    from repro.obs.aggregate import MetricSnapshot, snapshot_delta

    out = out if out is not None else sys.stdout
    old = _load_snapshot(old_path)
    new = _load_snapshot(new_path)
    if not isinstance(old, MetricSnapshot) or not isinstance(new, MetricSnapshot):
        print("telemetry diff needs two MetricSnapshot JSON files",
              file=sys.stderr)
        return 2
    delta = snapshot_delta(old, new)
    out.write(json.dumps(delta, sort_keys=True, indent=2, default=str) + "\n")
    return 0


def chrome_from_jsonl(lines) -> dict[str, Any]:
    """Span-JSONL lines (blank ones skipped) -> a Chrome trace-event document,
    through the same converter as :meth:`repro.obs.trace.Tracer.export_chrome`."""
    from repro.obs.trace import chrome_trace

    return chrome_trace(json.loads(line) for line in lines if line.strip())


def telemetry_chrome(path: str, out_path: str | None) -> int:
    with open(path, encoding="utf-8") as fh:
        doc = chrome_from_jsonl(fh)
    if out_path is None:
        stem = path[:-6] if path.endswith(".jsonl") else path
        out_path = stem + ".chrome.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    print(f"{len(doc['traceEvents'])} events -> {out_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="repro demo and telemetry file tools",
    )
    sub = parser.add_subparsers(dest="command")
    tel = sub.add_parser("telemetry", help="inspect saved telemetry files")
    telsub = tel.add_subparsers(dest="telemetry_command", required=True)

    p = telsub.add_parser("print", help="pretty-print a snapshot/scrape JSON")
    p.add_argument("snapshot", help="MetricSnapshot JSON or scrape-dict JSON")

    d = telsub.add_parser("diff", help="what moved between two snapshots")
    d.add_argument("old", help="earlier MetricSnapshot JSON")
    d.add_argument("new", help="later MetricSnapshot JSON")

    c = telsub.add_parser("chrome", help="span JSONL -> Chrome trace JSON")
    c.add_argument("trace", help="JSONL file from Tracer.export_jsonl")
    c.add_argument("-o", "--output", default=None,
                   help="output path (default: <trace>.chrome.json)")

    args = parser.parse_args(argv)
    if args.command is None:
        demo()
        return 0
    if args.telemetry_command == "print":
        return telemetry_print(args.snapshot)
    if args.telemetry_command == "diff":
        return telemetry_diff(args.old, args.new)
    if args.telemetry_command == "chrome":
        return telemetry_chrome(args.trace, args.output)
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
