"""Figure 9: directories accessed per chunk commit, SPLASH-2.

Shape: applications average 2-6 directories; Radix is the outlier with a
large group in which nearly every module records writes.
"""

from repro.harness import figures

from conftest import CORE_COUNTS


def test_fig9_dirs_per_commit_splash2(records):
    big = max(CORE_COUNTS)
    radix_dirs, radix_write, _ = figures.dirs_per_commit(records, "Radix", big)
    assert radix_dirs >= 7, "Radix must access many directories"
    # nearly all of Radix's group records writes (Section 6.2)
    assert radix_write / radix_dirs > 0.8

    lu_dirs, _, _ = figures.dirs_per_commit(records, "LU", big)
    assert lu_dirs < 4, "blocked LU has small groups"

    assert radix_dirs > 2 * lu_dirs
