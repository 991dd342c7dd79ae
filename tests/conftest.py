import pytest

from xxzent import cmfa, exact


@pytest.fixture(autouse=True)
def fresh_per_n_tables():
    """Each test builds its own brute-force eigen-rows and CMFA gap roots: a
    table kept from an earlier test would hide the eigh calls and gap
    solves a test counts, and one built under a test's monkeypatch must not
    reach the next test."""
    exact._flip_flop_rows.cache_clear()
    cmfa._gap_root.cache_clear()
    yield
    exact._flip_flop_rows.cache_clear()
    cmfa._gap_root.cache_clear()
