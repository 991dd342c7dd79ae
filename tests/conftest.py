import pytest

from xxzent import exact


@pytest.fixture(autouse=True)
def fresh_per_n_tables():
    """Each test builds its own brute-force eigen-rows: a table kept from an
    earlier test would hide the eigh calls a test counts, and one built
    under a test's monkeypatch must not reach the next test."""
    exact._flip_flop_rows.cache_clear()
    yield
    exact._flip_flop_rows.cache_clear()
