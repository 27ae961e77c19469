"""Shared helpers for the benchmark suite.

Each experiment (see DESIGN.md §4) prints its paper-style table *and*
writes it under ``benchmarks/results/`` so `bench_output.txt` and
EXPERIMENTS.md can reference stable artifacts.  The engine's speed is
measured by the repository benchmark (``perfbench/``), not here.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def emit(results_dir):
    """Print a table and persist it as ``results/<name>.txt``."""

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _emit
