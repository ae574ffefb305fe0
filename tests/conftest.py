"""Shared fixtures for the test suite."""

import random

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite golden Verilog snapshots instead of comparing",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "needs_kernel: needs a batch kernel (NumPy, cffi and a C compiler, "
        "FLEET_NATIVE not off); skipped, naming why, where none can be "
        "built",
    )


def pytest_runtest_setup(item):
    if item.get_closest_marker("needs_kernel") is not None:
        from repro.interp import kernel_unavailable

        reason = kernel_unavailable()
        if reason is not None:
            pytest.skip(f"needs a batch kernel: {reason}")


@pytest.fixture
def update_goldens(request):
    """True when the run should rewrite golden snapshot files."""
    return request.config.getoption("--update-goldens")


@pytest.fixture
def rnd():
    """A deterministically seeded RNG per test."""
    return random.Random(0xF1EE7)


@pytest.fixture
def rnd_factory():
    """Factory for independently seeded RNGs."""
    return lambda seed: random.Random(seed)


@pytest.fixture
def fresh_artifacts(monkeypatch):
    """An empty process-wide artifact map for one test: every program
    structure is certified, lowered and compiled from scratch, whatever
    earlier tests built."""
    from repro.lint import certificate

    monkeypatch.setattr(certificate, "_ARTIFACTS", {})
