import math
import multiprocessing

import numpy as np
import pytest

from topogate.diagram import Diagram


def empty_diagram() -> Diagram:
    z = np.zeros(0)
    return Diagram(z, z, z)


def diagram_from_points(points) -> Diagram:
    """Build from an iterable of (birth, death, dim) triples; a death of
    math.inf or NaN marks an essential point."""
    births, deaths, dims = [], [], []
    for b, d, k in points:
        births.append(float(b))
        deaths.append(math.nan if d == math.inf else float(d))
        dims.append(int(k))
    return Diagram(np.array(births), np.array(deaths), np.array(dims))


def as_multiset(diag: Diagram) -> list[tuple]:
    """Sorted point list suitable for multiset equality checks."""
    d = diag.canonical()
    return [
        (float(b), None if e else float(dd), int(k), bool(e))
        for b, dd, k, e in zip(d.births, d.deaths, d.dims, d.essential)
    ]


def alive_counts(diag: Diagram, tau: float) -> tuple[int, int]:
    """Number of H0/H1 pairs alive at tau under the half-open convention."""
    deaths = np.where(diag.essential, np.inf, diag.deaths)
    alive = (diag.births <= tau) & (tau < deaths)
    return int(np.sum(alive & (diag.dims == 0))), int(np.sum(alive & (diag.dims == 1)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_leaked_process():
    """A test that leaves a child process running fails; the child is killed
    so that the tests after it do not see it."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.kill()
        child.join()
    assert leaked == []
