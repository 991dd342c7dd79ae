"""Test oracles: references that the tests check the xxzent tiers against.

They are test code, not part of the installed package. ``rpa`` is the
generic finite-temperature RPA engine and imports nothing from xxzent but
the error types; ``closed_forms`` holds the paper's closed forms and the
explicit collective spectrum, and ``pair_sectors`` every pair-swap sector
of an S_z block, both built from public xxzent names only.
``test_oracle_independence`` checks both rules on the import statements.
"""
