from types import SimpleNamespace

import numpy as np
import pytest

from cyclesteer.polytope import MAX_LEVEL, _check_antipodal, _facet_inradius, antipodal_directions, sphere_polytope


# The per-vertex and per-facet loops the vectorized helpers replaced (oracles).
def _facet_inradius_loop(verts, faces):
    dists = []
    for a, b, c in faces:
        n = np.cross(verts[b] - verts[a], verts[c] - verts[a])
        dists.append(abs(np.dot(n, verts[a])) / np.linalg.norm(n))
    return float(min(dists))


def _antipodally_closed_loop(verts, tol=1e-9):
    return all(np.linalg.norm(verts + v, axis=1).min() <= tol for v in verts)


def _antipodal_directions_loop(poly):
    chosen = []
    for v in poly.vertices:
        key = v if (v[0], v[1], v[2]) > (-v[0], -v[1], -v[2]) else -v
        if not any(np.allclose(key, c, atol=1e-9) for c in chosen):
            chosen.append(key)
    return np.array(chosen)


@pytest.mark.parametrize(
    "level,n_verts,n_faces,eta",
    [
        (0, 12, 20, 0.7946544722917661),
        (1, 42, 80, 0.9341723589627156),
        (2, 162, 320, 0.9822469463768460),
    ],
)
def test_levels(level, n_verts, n_faces, eta):
    poly = sphere_polytope(level)
    assert len(poly.vertices) == n_verts
    assert poly.faces.shape == (n_faces, 3)
    assert abs(poly.eta - eta) < 1e-12
    assert np.allclose(np.linalg.norm(poly.vertices, axis=1), 1.0)


def test_eta_is_inradius_lower_bound():
    """Every facet plane is at distance >= eta, and eta < 1 strictly."""
    poly = sphere_polytope(1)
    v, f = poly.vertices, poly.faces
    for a, b, c in f:
        n = np.cross(v[b] - v[a], v[c] - v[a])
        d = abs(np.dot(n, v[a])) / np.linalg.norm(n)
        assert d >= poly.eta - 1e-14
    assert poly.eta < 1.0


def test_eta_increases_with_level():
    etas = [sphere_polytope(k).eta for k in range(3)]
    assert etas[0] < etas[1] < etas[2]


def test_faces_cover_all_vertices():
    poly = sphere_polytope(1)
    assert set(poly.faces.ravel()) == set(range(len(poly.vertices)))


def test_vertices_antipodally_closed():
    poly = sphere_polytope(2)
    v = poly.vertices
    for p in v:
        assert np.linalg.norm(v + p, axis=1).min() < 1e-9


def test_shrunk_ball_point_inside_hull():
    """eta * (any unit vector) satisfies all facet inequalities n.x <= n.v."""
    poly = sphere_polytope(0)
    rng = np.random.default_rng(3)
    v, f = poly.vertices, poly.faces
    normals, offsets = [], []
    for a, b, c in f:
        n = np.cross(v[b] - v[a], v[c] - v[a])
        d = np.dot(n, v[a])
        if d < 0:
            n, d = -n, -d  # outward orientation
        normals.append(n)
        offsets.append(d)
    normals, offsets = np.array(normals), np.array(offsets)
    for _ in range(500):
        u = rng.standard_normal(3)
        u *= poly.eta / np.linalg.norm(u)
        assert (normals @ u <= offsets + 1e-12).all()


def test_antipodal_directions():
    for level in (0, 1):
        poly = sphere_polytope(level)
        dirs = antipodal_directions(poly)
        assert dirs.shape == (len(poly.vertices) // 2, 3)
        # each direction and its negation appear in the vertex set
        for d in dirs:
            assert np.linalg.norm(poly.vertices - d, axis=1).min() < 1e-9
            assert np.linalg.norm(poly.vertices + d, axis=1).min() < 1e-9
        # no two chosen directions are (anti)parallel
        gram = np.abs(dirs @ dirs.T)
        assert (gram[~np.eye(len(dirs), dtype=bool)] < 1 - 1e-9).all()


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_antipodal_check_is_exact(level):
    """Every level's vertex set is bitwise closed under negation, and a
    one-ulp move of a single vertex is caught (no distance tolerance)."""
    v = sphere_polytope(level).vertices
    _check_antipodal(v)
    moved = v.copy()
    moved[0, 0] = np.nextafter(moved[0, 0], np.inf)
    assert _antipodally_closed_loop(moved)
    with pytest.raises(AssertionError):
        _check_antipodal(moved)


def test_antipodal_directions_signed_zero():
    """-0.0 and 0.0 count as one coordinate: the octahedron's six
    vertices, whose negations carry -0.0, give its three axes in order."""
    axes = np.eye(3)
    verts = np.stack([s * e for e in axes for s in (1.0, -1.0)])
    assert np.signbit(verts[1]).all()
    _check_antipodal(verts)
    dirs = antipodal_directions(SimpleNamespace(vertices=verts))
    assert np.array_equal(dirs, axes)


def test_negative_level_rejected():
    """A level is an int in [0, MAX_LEVEL]: True built level 1 and 1.5 ended
    in a TypeError from range."""
    for level in (-1, MAX_LEVEL + 1, True, 1.5):
        with pytest.raises(ValueError, match=rf"^level {level!r} is not an integer in \[0, {MAX_LEVEL}\]$"):
            sphere_polytope(level)
    assert len(sphere_polytope(MAX_LEVEL).vertices) == 2562


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_vectorized_helpers_match_loops(level):
    """Bit-identical to the loops, including the order of the directions,
    which fixes the LP row order."""
    poly = sphere_polytope(level)
    assert poly.eta == _facet_inradius_loop(poly.vertices, poly.faces)
    assert _facet_inradius(poly.vertices, poly.faces) == poly.eta
    assert antipodal_directions(poly).tobytes() == _antipodal_directions_loop(poly).tobytes()
    assert _antipodally_closed_loop(poly.vertices)
    _check_antipodal(poly.vertices)
    half = poly.vertices[poly.vertices[:, 2] > 0]
    assert not _antipodally_closed_loop(half)
    with pytest.raises(AssertionError):
        _check_antipodal(half)


def test_polytope_built_once_and_read_only():
    poly = sphere_polytope(1)
    assert sphere_polytope(1) is poly
    with pytest.raises(ValueError):
        poly.vertices[0, 0] = 0.0
    with pytest.raises(ValueError):
        poly.faces[0, 0] = 0
