"""Figure 7: SPLASH-2 execution-time breakdowns across the four protocols.

Shape checks (not absolute numbers): ScalableBulk carries essentially no
commit-stall time; SEQ pays heavy commit serialization on large-group
applications (Radix); overall, ScalableBulk's average speedup is at least
that of SEQ and BulkSC.
"""

from repro.config import ProtocolKind
from repro.harness import figures

from conftest import CORE_COUNTS, SPLASH2_SUBSET


def test_fig7_splash2_breakdown(records):
    big = max(CORE_COUNTS)

    def average_speedup(proto):
        return figures.average_speedup(records, SPLASH2_SUBSET, big, proto)

    def bar(app, proto):
        return figures.breakdown(records, app, big, proto)

    sb = average_speedup(ProtocolKind.SCALABLEBULK)
    seq = average_speedup(ProtocolKind.SEQ)
    bsc = average_speedup(ProtocolKind.BULKSC)
    assert sb > 0
    # ScalableBulk wins on average against the serializing protocols
    assert sb >= seq * 0.95
    assert sb >= bsc * 0.95

    # ScalableBulk shows practically no commit stalls (paper Section 6.1)
    sb_commit = figures.average_commit_fraction(
        records, SPLASH2_SUBSET, big, ProtocolKind.SCALABLEBULK)
    assert sb_commit < 0.05

    # SEQ pays for Radix's large write groups; at the paper's 64-core
    # scale the commit component dominates its bar
    radix_seq = bar("Radix", ProtocolKind.SEQ)
    radix_sb = bar("Radix", ProtocolKind.SCALABLEBULK)
    if big >= 64:
        assert radix_seq["commit"] / max(radix_seq["norm"], 1e-12) > 0.3
    assert radix_seq["norm"] >= radix_sb["norm"] * 0.9

    # large-footprint apps beat linear scaling (aggregate L2 capacity)
    ocean = bar("Ocean", ProtocolKind.SCALABLEBULK)
    assert ocean["speedup"] > big * 0.8
