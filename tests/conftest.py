import os
from pathlib import Path

import pytest

import hurwitzcalc

SRC = str(Path(hurwitzcalc.__file__).resolve().parents[1])


@pytest.fixture(scope="session")
def engine_env():
    """The environment for an engine subprocess: this process's own, so
    settings such as PYTHONDONTWRITEBYTECODE carry over, with the engine's
    source on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": SRC}
