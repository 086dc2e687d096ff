"""Shared fixtures for the test suite.

Slow-lane split: tests marked ``@pytest.mark.slow`` (streaming soaks
and similar) are skipped unless ``--run-slow`` is given, so
the default CI gate stays fast while the nightly lane can run
``pytest --run-slow`` for full coverage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.genome.datasets import Dataset, build_dataset
from repro.genome.edits import ErrorModel
from repro.genome.sequence import DnaSequence


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--run-slow", action="store_true", default=False,
        help="also run tests marked slow (nightly/stress lane)",
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: long-running stress test (needs --run-slow)"
    )


def pytest_collection_modifyitems(config: pytest.Config,
                                  items: "list[pytest.Item]") -> None:
    if config.getoption("--run-slow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test; pass --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_dataset_a() -> Dataset:
    """A small Condition-A dataset shared across read-only tests."""
    return build_dataset("A", n_reads=24, read_length=128, n_segments=32,
                         seed=7)


@pytest.fixture(scope="session")
def small_dataset_b() -> Dataset:
    """A small Condition-B dataset shared across read-only tests."""
    return build_dataset("B", n_reads=24, read_length=128, n_segments=32,
                         seed=8)


@pytest.fixture
def sequence_pair() -> tuple[DnaSequence, DnaSequence]:
    """The paper's Fig. 2 example pair (S2 stored, S1 read)."""
    return DnaSequence("ATCTGCGA"), DnaSequence("AGCTGAGA")


@pytest.fixture
def noiseless_model() -> ErrorModel:
    """An error model that injects nothing."""
    return ErrorModel()


def random_sequence(rng: np.random.Generator, length: int) -> DnaSequence:
    """Helper used by many tests: uniform random sequence."""
    return DnaSequence(rng.integers(0, 4, length).astype(np.uint8))
