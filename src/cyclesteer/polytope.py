"""Geodesic sphere polytopes with a certified inradius.

Level 0 is the regular icosahedron; level k bisects every edge of level
k-1 and renormalizes. The triangulation is carried along explicitly, so
the inradius eta is certified directly from the facet planes without a
generic convex-hull algorithm. The vertex set is antipodally symmetric
at every level, which lets a vertex set double as antipodal measurement
directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

GOLDEN = (1 + np.sqrt(5)) / 2

# Finest level built (2562 vertices). Levels come from the command line and
# each one quadruples a build's time and memory, so this bounds that work.
MAX_LEVEL = 4


@dataclass(frozen=True)
class SpherePolytope:
    vertices: np.ndarray  # (N, 3) unit vectors
    faces: np.ndarray     # (F, 3) vertex index triangles of the hull
    eta: float            # certified inradius lower bound


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = GOLDEN
    verts = np.array(
        [
            [-1, 0, phi], [1, 0, phi], [-1, 0, -phi], [1, 0, -phi],
            [0, phi, 1], [0, phi, -1], [0, -phi, 1], [0, -phi, -1],
            [phi, 1, 0], [phi, -1, 0], [-phi, 1, 0], [-phi, -1, 0],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 1, 4], [0, 4, 10], [0, 10, 11], [0, 11, 6], [0, 6, 1],
            [1, 6, 9], [1, 9, 8], [1, 8, 4], [4, 8, 5], [4, 5, 10],
            [10, 5, 2], [10, 2, 11], [11, 2, 7], [11, 7, 6], [6, 7, 9],
            [3, 2, 5], [3, 5, 8], [3, 8, 9], [3, 9, 7], [3, 7, 2],
        ]
    )
    return verts, faces


def _subdivide(verts: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One geodesic subdivision: bisect edges, renormalize, split each
    triangle into four."""
    verts = list(map(tuple, verts))
    midpoint_cache: dict[tuple[int, int], int] = {}

    def midpoint(i: int, j: int) -> int:
        key = (min(i, j), max(i, j))
        if key not in midpoint_cache:
            p = np.array(verts[i]) + np.array(verts[j])
            p /= np.linalg.norm(p)
            verts.append(tuple(p))
            midpoint_cache[key] = len(verts) - 1
        return midpoint_cache[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
    return np.array(verts), np.array(new_faces)


def _facet_inradius(verts: np.ndarray, faces: np.ndarray) -> float:
    """Min over facets of the distance from the origin to the facet plane."""
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    n = np.cross(b - a, c - a)
    # row-wise dot products as stacked matmuls, which sum like np.dot
    dot = (n[:, None, :] @ a[:, :, None]).ravel()
    norm = np.sqrt((n[:, None, :] @ n[:, :, None]).ravel())
    return float((np.abs(dot) / norm).min())


def sphere_polytope(level: int) -> SpherePolytope:
    """Geodesic polytope at subdivision level 0 to MAX_LEVEL (0 = icosahedron,
    12 vertices; each level quadruples the face count). Built once per level;
    the returned polytope and its arrays are shared and read-only."""
    if type(level) is not int or not 0 <= level <= MAX_LEVEL:  # a bool is not a level
        raise ValueError(f"level {level!r} is not an integer in [0, {MAX_LEVEL}]")
    return _build(level)


@cache
def _build(level: int) -> SpherePolytope:
    verts, faces = _icosahedron()
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
    _check_antipodal(verts)
    verts.flags.writeable = False
    faces.flags.writeable = False
    return SpherePolytope(vertices=verts, faces=faces, eta=_facet_inradius(verts, faces))


def _check_antipodal(verts: np.ndarray):
    """The row set equals its negation exactly: the icosahedron's vertices
    are bitwise antipodal, and so are the normalized midpoints of
    antipodal edges, since float sums and quotients are sign-symmetric."""
    if not np.array_equal(np.unique(verts + 0.0, axis=0), np.unique(-verts + 0.0, axis=0)):
        raise AssertionError("vertex set not closed under negation")


def antipodal_directions(poly: SpherePolytope) -> np.ndarray:
    """One canonical representative per antipodal vertex pair (N/2
    measurement directions), in vertex order: each vertex is mapped to
    whichever of +-v is lexicographically larger, and the first of each
    group of equal representatives is kept (-0.0 matching 0.0)."""
    v = poly.vertices
    nonzero = v != 0
    first = nonzero.argmax(axis=1)
    positive = v[np.arange(len(v)), first] > 0
    keys = np.where(positive[:, None], v, -v)
    _, idx = np.unique(keys + 0.0, axis=0, return_index=True)
    return keys[np.sort(idx)]
