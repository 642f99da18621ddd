"""Figure 18: traffic characterization, SPLASH-2.

Shape: TCC generates the most messages (probe/skip broadcast + per-line
marks), dominated by small commit messages; ScalableBulk's commit traffic
is point-to-point and far lighter.
"""

from repro.config import ProtocolKind
from repro.harness import figures

from conftest import LARGE_CORES, SPLASH2_SUBSET


def test_fig18_traffic_splash2(records):
    data = {app: figures.traffic(records, app, LARGE_CORES)
            for app in SPLASH2_SUBSET}

    for app, per_proto in data.items():
        totals = {p: sum(counts.values())
                  for p, counts in per_proto.items()}
        # TCC sends the most messages of all protocols (Section 6.5)
        assert totals[ProtocolKind.TCC] == max(totals.values()), app
        # TCC's commit traffic is dominated by small messages (skip/probe)
        tcc = per_proto[ProtocolKind.TCC]
        assert tcc.get("SmallCMessage", 0) > tcc.get("LargeCMessage", 0)
        # ScalableBulk commit messages: fewer than TCC's
        sb = per_proto[ProtocolKind.SCALABLEBULK]
        tcc_commit = tcc.get("SmallCMessage", 0) + tcc.get("LargeCMessage", 0)
        sb_commit = sb.get("SmallCMessage", 0) + sb.get("LargeCMessage", 0)
        assert sb_commit < tcc_commit, app
