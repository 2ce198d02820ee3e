"""Fixtures shared by every test module."""

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic garbage collector disabled.

    `pramcheck.cli.main` pauses the collector while a command runs and must
    put it back; a test that pauses it itself must do the same, or every
    later test would run with the collector off.
    """
    enabled = gc.isenabled()
    yield
    if enabled and not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
