#!/usr/bin/env python
"""Trace a chunk's life through the protocol.

Attaches an instrumentation bus to a small contended machine, runs it, and
prints (1) the machine-wide event summary and (2) the full timeline of one
chunk that lost a group-formation collision and retried — the debugging
workflow for protocol investigations.

Run:  python examples/debug_timeline.py
"""

from repro import Machine, ProtocolKind, SystemConfig
from repro.cpu.chunk import ChunkAccess, ChunkSpec
from repro.obs.bus import InstrumentationBus, attach_bus, ctag_str


def chunk_of(event) -> str:
    """The chunk an event belongs to (commit ids render as ``tag#attempt``)."""
    return ctag_str(event.ctag).split("#")[0]


def timeline(bus: InstrumentationBus, tag: str) -> str:
    lines = [f"timeline for {tag}:"]
    for ev in bus.events:
        if ev.ctag is not None and chunk_of(ev) == tag:
            detail = " ".join(f"{k}={v}" for k, v in ev.fields.items())
            lines.append(f"  t={ev.time:>8d} {ev.kind:16s} {ev.src:8s} {detail}")
    return "\n".join(lines)


def main() -> None:
    config = SystemConfig(n_cores=9, seed=11,
                          protocol=ProtocolKind.SCALABLEBULK)
    # every core hammers the same two pages: guaranteed collisions
    pages = (32 * 128 * 300, 32 * 128 * 460)

    def specs(core):
        return [ChunkSpec(250, [
            ChunkAccess(1, pages[0] + 32 * core, True),
            ChunkAccess(1, pages[1] + 32 * core, True),
            ChunkAccess(1, pages[0] + 32 * ((core + 1) % 9), False),
        ]) for _ in range(3)]

    remaining = {c: specs(c) for c in range(9)}
    machine = Machine(config, next_spec=lambda c: (
        remaining.get(c).pop(0) if remaining.get(c) else None))
    bus = attach_bus(machine, InstrumentationBus(record_messages=False))
    machine.run()

    print("machine-wide event summary:")
    for kind, count in sorted(bus.summary().items()):
        print(f"  {kind:16s} {count}")

    failures = bus.of_kind("group_failed")
    print(f"\n{len(failures)} group-formation failures; "
          f"{machine.protocol.stats.commit_recalls} OCI recalls")

    interesting = failures[0] if failures else bus.of_kind("commit_complete")[0]
    print("\n" + timeline(bus, chunk_of(interesting)))

    squashes = bus.of_kind("squash")
    if squashes:
        print("\n" + timeline(bus, chunk_of(squashes[0])))


if __name__ == "__main__":
    main()
