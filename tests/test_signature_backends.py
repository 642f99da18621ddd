"""Compatibility checks on signature set operations.

Signatures hashed by factories with different seeds place the same line
at different bit positions, so every binary operation between them must
refuse to run rather than silently mix the two layouts.
"""

import pytest

from repro.signatures.bulk_signature import SignatureFactory


class TestUnionCompatibility:
    def test_union_rejects_incompatible_factories(self):
        """Regression: union() used to skip the compatibility check that
        union_update() and intersects() perform, silently interleaving
        bits hashed under different seeds."""
        f1 = SignatureFactory(total_bits=2048, n_banks=4, seed=2010)
        f2 = SignatureFactory(total_bits=2048, n_banks=4, seed=2011)
        with pytest.raises(ValueError, match="incompatible"):
            f1.from_lines([1, 2]).union(f2.from_lines([3]))
