"""Shared pytest fixtures, numerical helpers and the per-test watchdog."""

from __future__ import annotations

import faulthandler
import os
import sys

import numpy as np
import pytest

# -- per-test watchdog -------------------------------------------------------
# ``timeout`` in pyproject.toml is pytest-timeout's setting.  Without the
# plugin the same value arms a faulthandler watchdog per test instead: a
# test that runs past it dumps every thread's stack and ends the run, so a
# hung decode fails the suite instead of wedging it.

_WATCHDOG_FILE = pytest.StashKey()


def pytest_addoption(parser, pluginmanager):
    if not pluginmanager.has_plugin("timeout"):
        parser.addini(
            "timeout",
            "per-test watchdog in seconds (0 disables); honoured by "
            "pytest-timeout when installed, by a faulthandler fallback otherwise",
            default="0",
        )


def _watchdog_seconds(config) -> float:
    if config.pluginmanager.has_plugin("timeout"):
        return 0.0
    return float(config.getini("timeout") or 0)


def pytest_configure(config):
    if _watchdog_seconds(config) > 0:
        # a copy of the real stderr: output capture redirects fd 2 while
        # a test runs, and a dump into the capture buffer would be lost
        config.stash[_WATCHDOG_FILE] = os.fdopen(
            os.dup(sys.__stderr__.fileno()), "w"
        )


def pytest_unconfigure(config):
    stream = config.stash.get(_WATCHDOG_FILE, None)
    if stream is not None:
        faulthandler.cancel_dump_traceback_later()
        stream.close()
        del config.stash[_WATCHDOG_FILE]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    stream = item.config.stash.get(_WATCHDOG_FILE, None)
    if stream is None:
        yield
        return
    faulthandler.dump_traceback_later(
        _watchdog_seconds(item.config), exit=True, file=stream
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``x`` in place."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = float(x[i])
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max absolute error normalized by the max magnitude of ``b``."""
    denom = np.abs(b).max() + 1e-12
    return float(np.abs(np.asarray(a) - np.asarray(b)).max() / denom)
