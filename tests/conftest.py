"""Shared fixtures."""

import pytest

from lmisolve import symlinalg


@pytest.fixture
def lapacke(monkeypatch):
    """route(**routines) sends `symlinalg`'s one LAPACKE lookup through
    routines for the rest of the test: route(dsyevr=None) makes `dsyevr` a
    missing symbol, route(ssytrf=fn) makes fn stand in for `ssytrf`, and
    every other name resolves as before the test. Each call replaces the
    previous one's routes, and returns the list of the names looked up from
    then on."""
    real = symlinalg._lapacke

    def route(**routines):
        looked = []

        def lookup(name):
            looked.append(name)
            return routines[name] if name in routines else real(name)

        monkeypatch.setattr(symlinalg, "_lapacke", lookup)
        return looked

    return route
