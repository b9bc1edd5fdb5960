"""Fixtures every test module shares."""

import weakref

import pytest


@pytest.fixture(autouse=True)
def fresh_rate_tables(monkeypatch):
    """Each test starts with no shared rate table.

    Samplers of one prior and truncation share a ``RateTable`` while any of
    them lives (``size_biased._TABLES``).  A sampler kept alive past its
    test, say in the reference cycle of a ``pytest.raises`` traceback, would
    otherwise hand its table, patched rates included, to the next test that
    builds a sampler of an equal prior.
    """
    from expcrm import size_biased

    monkeypatch.setattr(size_biased, "_TABLES", weakref.WeakValueDictionary())
