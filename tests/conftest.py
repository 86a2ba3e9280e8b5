import os
import tempfile
from pathlib import Path

import pytest

from cliquecav import load_edge_list
from cliquecav.cli import DATASETS

DATA = Path(__file__).resolve().parent.parent / "data"


def pytest_configure(config):
    # Hypothesis caches the constants it reads from local modules in its home
    # directory, .hypothesis/ in the working directory unless set: give it a
    # temporary one that the session removes
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:
        return
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


# Known datasets (cli.DATASETS) are optional: tests that need one skip
# with a visible notice unless the file was fetched (or pointed to by
# CLIQUECAV_<NAME>).
def dataset_path(name: str) -> Path | None:
    env = os.environ.get(f"CLIQUECAV_{name.upper()}")
    if env:
        p = Path(env)
        if p.exists():
            return p
    p = DATA / f"{name}.edges"
    return p if p.exists() else None


def load_dataset(name: str):
    path = dataset_path(name)
    if path is None:
        pytest.skip(
            f"SKIPPED (dataset unavailable): {name} not found under data/ and "
            f"CLIQUECAV_{name.upper()} is unset; fetch it with "
            f"`cliquecav fetch {name} --url ...`"
        )
    net = load_edge_list(path)
    expected = DATASETS[name]
    if (net.node_count, net.edge_count) != expected:
        pytest.skip(
            f"SKIPPED (dataset variant mismatch): {path} has "
            f"{net.node_count} nodes / {net.edge_count} edges, "
            f"expected {expected[0]} / {expected[1]}"
        )
    return net


@pytest.fixture(scope="session")
def sample14():
    return load_edge_list(DATA / "sample14.edges")


@pytest.fixture(scope="session")
def sample8():
    return load_edge_list(DATA / "sample8.edges")


@pytest.fixture(scope="session")
def celegans():
    return load_dataset("celegans")
