"""Bundled example graphs used by tests and the command line demos."""

from __future__ import annotations

from importlib import resources

from .graph import Graph, load_edge_list

FIXTURE_NAMES = ("kar", "barbell", "cliques")


def load_fixture(name: str) -> Graph:
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    path = resources.files(__package__).joinpath(f"fixtures/{name}.txt")
    return load_edge_list(path.read_text())
