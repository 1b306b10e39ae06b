"""Geometry of the unit 2-sphere embedded in R^3.

Provides projections, round/conformal metrics, 2-forms written as a density
times the metric area form, and signed flux quadrature over spherical
triangles (recursive midpoint subdivision whose leaves contribute the density
at the centroid times the signed solid angle) and over an icosahedral
triangulation of the whole sphere.

All functions are pure and vectorized over leading array axes; points are
plain ndarrays of shape (..., 3).

Last-axis vector algebra goes through ``cross3``, ``dot3`` and ``norm3``, and
shifts along the node axis go through ``cyclic_shift``.  They give the same
bits as numpy's cross product, last-axis sum of products, last-axis 2-norm
and roll (``dot3`` can differ only in the sign of an exact zero whose three
products are all -0.0), at a fraction of the per-call cost on the small
arrays this package passes around.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTriangle, NearZeroVector
from .fields import ScalarField

BASE_POINT = np.array([-1.0, 0.0, 0.0])

_MIN_NORM = 1e-9
_ANTIPODAL_MARGIN = 1e-9
# most leaf triangles held in memory at once by ``triangles_flux``
LEAF_BATCH = 262144


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product on the last axis (component form; faster than np.cross
    for the small arrays this package manipulates)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product on the last axis, summed left to right as numpy's sum does."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def norm3(x: np.ndarray) -> np.ndarray:
    """Euclidean norm on the last axis, bitwise equal to numpy's norm there."""
    x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
    return np.sqrt(x0 * x0 + x1 * x1 + x2 * x2)


def cyclic_shift(x: np.ndarray, k: int) -> np.ndarray:
    """Rows shifted along the node axis: row i holds row (i + k) mod N, like
    numpy's roll by -k on axis 0."""
    k %= len(x)
    return np.concatenate((x[k:], x[:k]))


def project_to_sphere(x: np.ndarray) -> np.ndarray:
    """Radial projection x / |x|; rejects vectors with |x| <= 1e-9."""
    x = np.asarray(x, dtype=float)
    n = norm3(x)[..., None]
    if np.any(n <= _MIN_NORM):
        raise NearZeroVector(f"norm {float(n.min()):.3e} too small to project")
    return x / n


def tangent_project(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Component of v orthogonal to q (tangent to the sphere at q)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    return v - dot3(q, v)[..., None] * q


def angular_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geodesic angle between unit vectors, stable near 0 and pi."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.arctan2(norm3(cross3(a, b)), dot3(a, b))


def slerp(a: np.ndarray, b: np.ndarray, t) -> np.ndarray:
    """Geodesic interpolation from a (t=0) to b (t=1); a, b non-antipodal."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = np.asarray(t, dtype=float)[..., None]
    ang = angular_distance(a, b)[..., None]
    small = ang < 1e-8
    s = np.where(small, 1.0, np.sin(np.where(small, 1.0, ang)))
    wa = np.where(small, 1.0 - t, np.sin((1.0 - t) * ang) / s)
    wb = np.where(small, t, np.sin(t * ang) / s)
    return project_to_sphere(wa * a + wb * b)


def tangent_basis(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic orthonormal tangent pair (e1, e2) at q with e1 x e2 = q."""
    q = np.asarray(q, dtype=float)
    ref = np.zeros(q.shape)
    # pick the coordinate axis least aligned with q
    idx = np.argmin(np.abs(q), axis=-1)
    np.put_along_axis(ref, idx[..., None], 1.0, axis=-1)
    e1 = cross3(ref, q)
    e1 /= norm3(e1)[..., None]
    e2 = cross3(q, e1)
    return e1, e2


@dataclass(frozen=True)
class Metric:
    """Round metric or a conformal rescaling g = exp(2u) * g_round."""

    kind: str = "round"  # "round" | "conformal"
    conformal_exponent: ScalarField = ScalarField.constant(0.0)

    @staticmethod
    def round() -> "Metric":
        return Metric("round")

    @staticmethod
    def conformal(u: ScalarField) -> "Metric":
        return Metric("conformal", u)

    @property
    def is_round(self) -> bool:
        return self.kind == "round"

    def exp2u(self, q: np.ndarray) -> np.ndarray:
        if self.is_round:
            return np.ones(np.asarray(q).shape[:-1])
        return np.exp(2.0 * self.conformal_exponent(q))

    def dot(self, q: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """g_q(v, w) for tangent vectors in ambient coordinates."""
        val = dot3(np.asarray(v, dtype=float), np.asarray(w, dtype=float))
        if self.is_round:
            return val
        return self.exp2u(q) * val

    def norm_sq(self, q: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.dot(q, v, v)


@dataclass(frozen=True)
class TwoForm:
    """2-form sigma = f * dA_g: scalar density times the metric area form."""

    density: ScalarField
    metric: Metric = Metric.round()

    def round_density(self, q: np.ndarray) -> np.ndarray:
        """Density relative to the round area form: f * exp(2u)."""
        f = self.density(q)
        if self.metric.is_round:
            return f
        return f * self.metric.exp2u(q)

    def __call__(self, q: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """sigma_q(v, w) = f(q) * dA_g(v, w) with dA(v, w) = <q, v x w>."""
        q = np.asarray(q, dtype=float)
        tri = dot3(q, cross3(v, w))
        return self.round_density(q) * tri


def solid_angle(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Signed solid angle of the geodesic triangle (a, b, c).

    Uses the closed form 2*atan2(det[a,b,c], 1 + a.b + b.c + c.a), which is
    smooth in the vertices and carries the orientation sign directly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    det = dot3(a, cross3(b, c))
    denom = 1.0 + dot3(a, b) + dot3(b, c) + dot3(c, a)
    return 2.0 * np.arctan2(det, denom)


@dataclass(frozen=True)
class SphericalTriangle:
    """Geodesic triangle; vertex order fixes the orientation."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def validate(self) -> None:
        for u, v in ((self.a, self.b), (self.b, self.c), (self.c, self.a)):
            if angular_distance(u, v) >= np.pi - _ANTIPODAL_MARGIN:
                raise DegenerateTriangle("triangle has (near-)antipodal vertices")

    def vertices(self) -> np.ndarray:
        return np.stack([self.a, self.b, self.c])


def _subdivide(tris: np.ndarray, depth: int) -> np.ndarray:
    """4-way geodesic midpoint subdivision of a (T, 3, 3) vertex array.

    Each level is written straight into one (4T, 3, 3) array, in four
    blocks: corner a, corner b, corner c, then the middle triangle.
    """
    for _ in range(depth):
        t = len(tris)
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        ab = project_to_sphere(a + b)
        bc = project_to_sphere(b + c)
        ca = project_to_sphere(c + a)
        tris = np.empty((4 * t, 3, 3))
        blocks = tris.reshape(4, t, 3, 3)
        for blk, verts in zip(blocks, ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))):
            for v, vert in enumerate(verts):
                blk[:, v] = vert
    return tris


def triangles_flux(form: TwoForm, tris: np.ndarray, depth: int) -> float:
    """Flux of the 2-form through oriented triangles, a (T, 3, 3) vertex array.

    Each triangle is subdivided 4-way ``depth`` times; a leaf contributes the
    density at its projected centroid times its signed solid angle.  Base
    triangles are subdivided a batch at a time, so at most ``LEAF_BATCH``
    leaves exist at once.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    tris = np.asarray(tris, dtype=float)
    while 4**depth > LEAF_BATCH:
        tris, depth = _subdivide(tris, 1), depth - 1
    per_batch = LEAF_BATCH // 4**depth
    total = 0.0
    for lo in range(0, len(tris), per_batch):
        leaves = _subdivide(tris[lo : lo + per_batch], depth)
        a, b, c = leaves[:, 0], leaves[:, 1], leaves[:, 2]
        centroid = project_to_sphere(a + b + c)
        total += float(np.sum(form.round_density(centroid) * solid_angle(a, b, c)))
    return total


def integrate_two_form_triangle(form: TwoForm, tri: SphericalTriangle, depth: int) -> float:
    """Flux of the 2-form through one oriented spherical triangle.

    Uses ``triangles_flux`` on the single triangle; reversing the vertex
    order negates the result.
    """
    tri.validate()
    return triangles_flux(form, tri.vertices()[None], depth)


def icosahedron_faces() -> np.ndarray:
    """The 20 outward-oriented faces of a regular icosahedron, shape (20, 3, 3)."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = []
    for s1 in (-1.0, 1.0):
        for s2 in (-1.0, 1.0):
            verts.append([0.0, s1, s2 * phi])
            verts.append([s1, s2 * phi, 0.0])
            verts.append([s2 * phi, 0.0, s1])
    v = project_to_sphere(np.array(verts))
    # faces by nearest-neighbor edges: every vertex pair at the minimal distance
    d = v @ v.T
    edge_cos = np.sort(np.unique(np.round(d, 9)))[-2]
    faces = []
    n = len(v)
    for i in range(n):
        for j in range(i + 1, n):
            if abs(d[i, j] - edge_cos) > 1e-6:
                continue
            for k in range(j + 1, n):
                if abs(d[i, k] - edge_cos) < 1e-6 and abs(d[j, k] - edge_cos) < 1e-6:
                    tri = [i, j, k]
                    det = np.dot(v[tri[0]], np.cross(v[tri[1]], v[tri[2]]))
                    if det < 0:
                        tri = [i, k, j]
                    faces.append(tri)
    assert len(faces) == 20
    return v[np.array(faces)]


def icosphere_triangles(depth: int) -> np.ndarray:
    """Icosahedral triangulation refined ``depth`` times, shape (20*4^d, 3, 3)."""
    return _subdivide(icosahedron_faces(), depth)


def icosphere_vertices(depth: int) -> np.ndarray:
    """Deduplicated vertex set of the refined icosahedral grid."""
    tris = icosphere_triangles(depth).reshape(-1, 3)
    rounded = np.round(tris, 12)
    _, idx = np.unique(rounded, axis=0, return_index=True)
    return tris[np.sort(idx)]


def total_flux(form: TwoForm, depth: int) -> float:
    """Flux of the 2-form through the whole sphere at the given grid depth."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    return triangles_flux(form, icosahedron_faces(), depth)
