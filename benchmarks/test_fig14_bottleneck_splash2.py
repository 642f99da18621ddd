"""Figure 14: bottleneck ratio, SPLASH-2 (ScalableBulk / TCC / SEQ).

Shape: SEQ's sequential occupation makes group acquisition dwarf commit
completion on large-group apps; ScalableBulk stays moderate.
"""

from repro.config import ProtocolKind
from repro.harness import figures

from conftest import LARGE_CORES, SPLASH2_SUBSET


def test_fig14_bottleneck_splash2(records):
    data = {app: figures.bottleneck_ratios(records, app, LARGE_CORES)
            for app in SPLASH2_SUBSET}

    for app, per_proto in data.items():
        for proto, ratio in per_proto.items():
            assert ratio >= 0.0, (app, proto)

    # SEQ on Radix: formation (occupation) dominates completion
    assert data["Radix"][ProtocolKind.SEQ] > \
        data["Radix"][ProtocolKind.SCALABLEBULK]
