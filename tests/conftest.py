"""Shared fixtures: the acceptance graph corpus with cached per-vertex records."""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from drgkit.families import (
    chang,
    complete_bipartite,
    icosahedron,
    johnson,
    rook_grid,
    shrikhande,
    triangular_complement,
)
from drgkit.context import GraphContext
from drgkit.spectra import SrgParams
from drgkit.tmodules import decompose_srg, dimension_sequence


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", default=False,
                     help="run the long half-cube sweep")


def pytest_collection_modifyitems(config, items):
    import os

    if config.getoption("--run-slow") or os.environ.get("DRGKIT_SLOW"):
        return
    skip = pytest.mark.skip(reason="slow sweep; use --run-slow or DRGKIT_SLOW=1")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@dataclass
class SrgVertexRecord:
    local: object
    d2: object
    dim_t: int
    decomposition: object
    ds: object


@dataclass
class SrgGraphRecord:
    graph: object
    params: SrgParams
    vertices: list
    elapsed: float


def _srg_record(g) -> SrgGraphRecord:
    t0 = time.time()
    ctx = GraphContext.of(g)
    p = SrgParams.from_drg(ctx.params)
    verts = []
    for x in range(g.n):
        local = ctx.subconstituent_spectrum(x, 1, allow_float=False)
        d2 = ctx.subconstituent_spectrum(x, 2, allow_float=False)
        dim_t = ctx.terwilliger_dimension(x)
        md = decompose_srg(ctx, x, p)
        ds = dimension_sequence(md, p, d2)
        verts.append(SrgVertexRecord(local=local, d2=d2, dim_t=dim_t,
                                     decomposition=md, ds=ds))
    return SrgGraphRecord(graph=g, params=p, vertices=verts,
                          elapsed=time.time() - t0)


_SRG_BUILDERS = {
    "J(8,2)": lambda: johnson(8, 2),
    "Chang-1": lambda: chang(1),
    "Chang-2": lambda: chang(2),
    "Chang-3": lambda: chang(3),
    "Shrikhande": shrikhande,
    "4x4 grid": lambda: rook_grid(4),
    "K(2,2)": lambda: complete_bipartite(2),
    "K(3,3)": lambda: complete_bipartite(3),
    "3x3 grid": lambda: rook_grid(3),
    "T(6) complement": lambda: triangular_complement(6),
}


@pytest.fixture(scope="session")
def srg_corpus():
    """Every diameter-2 acceptance graph with full per-vertex records."""
    return {name: _srg_record(build()) for name, build in _SRG_BUILDERS.items()}


@pytest.fixture(scope="session")
def chang_corpus(srg_corpus):
    return {name: srg_corpus[name]
            for name in ("J(8,2)", "Chang-1", "Chang-2", "Chang-3")}


@pytest.fixture(scope="session")
def ico():
    return icosahedron()


@pytest.fixture(scope="session")
def j84():
    return johnson(8, 4)
