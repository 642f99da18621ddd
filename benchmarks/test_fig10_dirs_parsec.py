"""Figure 10: directories accessed per chunk commit, PARSEC."""

from repro.harness import figures

from conftest import CORE_COUNTS, PARSEC_SUBSET


def test_fig10_dirs_per_commit_parsec(records):
    big = max(CORE_COUNTS)

    def mean_dirs(app):
        return figures.dirs_per_commit(records, app, big)[0]

    # Canneal and Blackscholes have the large groups (Section 6.2)
    assert mean_dirs("Canneal") > mean_dirs("Swaptions")
    assert mean_dirs("Blackscholes") > mean_dirs("Swaptions")
    # every app engages at least its own directory
    for app in PARSEC_SUBSET:
        for n in CORE_COUNTS:
            dirs, write, _ = figures.dirs_per_commit(records, app, n)
            assert dirs >= 1.0
            assert 0 <= write <= dirs
