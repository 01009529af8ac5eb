"""The hop table: python-int rows, a networkx oracle, no numpy import.

``Architecture.distance_matrix`` is one tuple of python ints per PE,
built by a BFS from every PE.  These tests check it against networkx's
shortest paths on every registered architecture kind and on a degraded
mesh, pin ``diameter`` and ``average_distance`` to the values the
earlier dense-matrix build gave, and check that importing the package
and its CLI loads no numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.arch import ARCHITECTURE_KINDS, DegradedTopology, make_architecture

from ..oracles import hop_counts

# (kind, PEs, diameter, average distance) as the dense-matrix build
# computed them
CASES = [
    ("linear", 6, 5, 2.3333333333333335),
    ("ring", 7, 3, 2.0),
    ("complete", 5, 1, 1.0),
    ("mesh", 12, 5, 2.3333333333333335),
    ("torus", 16, 4, 2.1333333333333333),
    ("hypercube", 16, 4, 2.1333333333333333),
    ("star", 6, 2, 1.6666666666666667),
    ("tree", 7, 4, 2.2857142857142856),
    ("circulant", 10, 3, 1.6666666666666667),
    ("cayley-star", 24, 4, 2.6956521739130435),
    ("cayley-bubble", 24, 6, 3.130434782608696),
    ("pancake", 24, 4, 2.608695652173913),
    ("pancake", 120, 5, 3.5714285714285716),
]


def _degraded_mesh():
    return DegradedTopology(
        make_architecture("mesh", 16), failed_pes=[5], failed_links=[(0, 1)]
    )


def _check_against_networkx(arch):
    dist = arch.distance_matrix
    alive = list(arch.processors)
    oracle = hop_counts(arch)
    for p in alive:
        for q in alive:
            assert dist[p][q] == oracle[p][q], (p, q)
            assert type(dist[p][q]) is int
    # symmetric, so one row serves both orientations
    assert [list(row) for row in dist] == [list(col) for col in zip(*dist)]


def test_every_registered_kind_is_covered():
    assert {kind for kind, *_ in CASES} == set(ARCHITECTURE_KINDS)


@pytest.mark.parametrize(
    "kind,pes,diameter,average",
    CASES,
    ids=[f"{kind}{pes}" for kind, pes, *_ in CASES],
)
def test_hop_table_matches_networkx(kind, pes, diameter, average):
    arch = make_architecture(kind, pes)
    assert isinstance(arch.distance_matrix, tuple)
    assert all(isinstance(row, tuple) for row in arch.distance_matrix)
    _check_against_networkx(arch)
    assert arch.diameter == diameter
    assert arch.average_distance == average


def test_degraded_mesh_matches_networkx_over_survivors():
    deg = _degraded_mesh()
    _check_against_networkx(deg)
    # a failed PE is unreachable from every survivor
    assert all(deg.distance_matrix[p][5] == -1 for p in deg.processors)
    assert deg.diameter == 7
    assert deg.average_distance == 3.104761904761905


def test_import_loads_no_numpy():
    # the engine and its CLI load neither numpy nor the analyzer
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, repro, repro.cli; "
        "sys.exit(sorted(m for m in sys.modules if m == 'numpy' "
        "or m.startswith('repro.analyze')) or None)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, f"import repro loaded {proc.stderr}"
