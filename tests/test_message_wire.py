"""Per-type wire constants, traffic accounting and tile lookup on the NoC.

``Message`` reads its size, traffic class and commit flag from constants
resolved once per ``MessageType`` at import; ``TrafficStats`` and
``Network.tile_of`` sit on the per-message path.  These tests pin all of
them to the from-scratch definitions they replace.
"""

import pickle
from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.engine.events import Simulator
from repro.network.message import (
    _COMMIT_TYPES, Message, MessageType, NodeRef, TrafficClass, arbiter_node,
    core_node, default_size_bytes, dir_node, traffic_class_of,
)
from repro.network.noc import Network


def make_net(n_cores=16):
    sim = Simulator()
    return sim, Network(SystemConfig(n_cores=n_cores), sim)


@pytest.mark.parametrize("mtype", list(MessageType), ids=lambda m: m.name)
def test_precomputed_constants_match_definitions(mtype):
    assert mtype.wire_bytes == default_size_bytes(mtype)
    assert mtype.traffic_class is traffic_class_of(mtype)
    assert mtype.is_commit is (mtype in _COMMIT_TYPES)
    msg = Message(mtype, core_node(0), dir_node(1))
    assert msg.size_bytes == default_size_bytes(mtype)
    assert msg.traffic_class is traffic_class_of(mtype)
    assert msg.is_commit_traffic is (mtype in _COMMIT_TYPES)


def test_explicit_size_wins():
    msg = Message(MessageType.G, core_node(0), dir_node(1), size_bytes=77)
    assert msg.size_bytes == 77
    assert msg.traffic_class is TrafficClass.SMALL_COMMIT


@pytest.mark.parametrize("enum", [MessageType, TrafficClass])
def test_identity_hash_is_consistent(enum):
    table = {member: i for i, member in enumerate(enum)}
    for i, member in enumerate(enum):
        assert hash(member) == object.__hash__(member)
        assert table[pickle.loads(pickle.dumps(member))] == i


def test_traffic_stats_match_a_recount():
    """Counts, bytes and key order equal a from-scratch recount over a
    mixed stream (every type, both tiles-apart and same-tile sends, some
    explicit sizes)."""
    sim, net = make_net()
    dsts = [core_node(i) for i in range(16)] + [dir_node(i) for i in range(16)]
    for node in dsts:
        net.register(node, lambda m: None)
    types = list(MessageType)
    sent = []
    for i in range(200):
        mtype = types[(i * 7) % len(types)]
        size = {"size_bytes": 3 + i} if i % 5 == 0 else {}
        msg = Message(mtype, dir_node(i % 16), dsts[(i * 11) % len(dsts)],
                      **size)
        net.send(msg)
        sent.append(msg)
    sim.run()

    by_class, bytes_by_class, by_type = Counter(), Counter(), Counter()
    for msg in sent:
        cls = traffic_class_of(msg.mtype)
        by_class[cls] += 1
        bytes_by_class[cls] += msg.size_bytes
        by_type[msg.mtype] += 1
    stats = net.stats
    assert stats.messages_by_class == by_class
    assert stats.bytes_by_class == bytes_by_class
    assert stats.messages_by_type == by_type
    assert stats.total_messages == len(sent)
    assert stats.total_bytes == sum(m.size_bytes for m in sent)
    # RunResult.traffic_by_class is built from messages_by_class in its
    # own key order: first appearance in the stream.
    assert list(stats.messages_by_class) == list(by_class)
    assert list(stats.bytes_by_class) == list(by_class)


def test_tile_of_matches_layout_and_rejects_unknown_kinds():
    _, net = make_net()
    n_tiles = net.topology.n_tiles
    for i in range(2 * n_tiles):
        for node in (core_node(i), dir_node(i), arbiter_node(i)):
            assert net.tile_of(node) == i % n_tiles
            assert net.tile_of(node) == i % n_tiles  # memoized hit
    for _ in range(2):  # a failed lookup is not memoized
        with pytest.raises(ValueError):
            net.tile_of(NodeRef("ghost", 0))
