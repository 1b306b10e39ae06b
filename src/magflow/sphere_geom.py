"""Geometry of the unit 2-sphere embedded in R^3.

Provides projections, tangent frames, and signed flux quadrature of a
2-form over spherical triangles and over the whole sphere (the 8 octant
faces); the metric lives on ``MagneticSystem``.  A 2-form
enters as its density relative to the round area form: any callable on
points, such as a ``ScalarField`` or ``MagneticSystem.round_density``.
The one flux rule is Gauss-Legendre in geodesic polar coordinates about a
triangle's first vertex, with 2^depth radial nodes and as few far-edge
nodes as the largest apex angle allows (4 for the thin cone triangles of a
lift, 2^depth for the octant faces of ``total_flux``); for smooth densities
it converges spectrally, to rounding at depth 4 (``FLUX_DEPTH``) on the
loops this package lifts.  The rules of the orders that depth reaches are
tabulated with numpy's bits, so no flux call at that depth solves an
eigenvalue problem.  It evaluates its points component-major, one
contiguous row per coordinate, with the bits of the point-major form and
at most 3 * T * 2^depth point coordinates alive for T triangles.

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

import functools
import itertools
from typing import Callable

import numpy as np

from .errors import NearZeroVector

Density = Callable[[np.ndarray], np.ndarray]

BASE_POINT = np.array([-1.0, 0.0, 0.0])

# Gauss-Legendre depth of every flux quadrature: 2^depth radial nodes, and
# at most that many on the far edges
FLUX_DEPTH = 4

# largest apex angle (rad) whose far edges take 4 Gauss-Legendre nodes
EDGE_PHI = 0.06

_MIN_NORM = 1e-9


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
    _require_norm(n)
    return x / n


def _require_norm(n: np.ndarray) -> None:
    """Reject norms n <= 1e-9, which are too small to project by."""
    if np.any(n <= _MIN_NORM):
        raise NearZeroVector(f"norm {float(n.min()):.3e} too small to project")


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


def triangles_flux(density: Density, tris: np.ndarray, depth: int = FLUX_DEPTH) -> float:
    """Flux of the 2-form with round-area density ``density`` through
    oriented triangles, a (T, 3, 3) vertex array.

    Each triangle is integrated in geodesic polar coordinates about its first
    vertex a: the far edge b -> c is the constant-speed great arc e(t), and
    the flux is the integral over t in [0, 1] of

        psi'(t) * int_0^Theta(t) f(cos(th) a + sin(th) d(t)) sin(th) d(th),

    with Theta(t) the angle from a to e(t), d(t) the unit direction from a
    towards e(t), and psi' = det[a, e, e'] / sin^2(Theta), which for the
    great arc of angle w is w det[a, b, c] / (sin(w) sin^2(Theta)).  Both
    integrals are Gauss-Legendre: the radial one takes 2^depth nodes, the
    edge one m nodes, fixed once per call from the largest angle phi that a
    far edge b -> c subtends at its apex a (``_edge_nodes``: 4 up to
    ``EDGE_PHI`` = 0.06 rad, doubling with each doubling of phi, at most
    2^depth), so a triangle costs m * 2^depth density evaluations.  The
    edge points of mirrored t-nodes are formed from the same two
    coefficients and summed in pairs, and phi is symmetric in b and c, so
    reversing (a, b, c) to (a, c, b) negates the flux exactly.

    The vertices are copied once to (3, T) component rows, so every product
    runs along the triangle axis, and the points of a t-node fill one
    (3, 2^depth, T) buffer that the density reads as its (2^depth, T, 3)
    view: each coordinate is a contiguous row.  The float operations and
    their order are those of the point-major (T, 3) form, so the flux has
    the same bits.  The t-nodes are visited one at a time, so at most
    3 * T * 2^depth point coordinates exist at once.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    tris = np.asarray(tris, dtype=float)
    # a[k] is coordinate k of every first vertex, and so on; the last-axis
    # helpers read the rows through their (T, 3) transposes
    a, b, c = tris.transpose(1, 2, 0).copy()
    n = 2**depth
    s, ws = _unit_gauss_legendre(n)
    bxc = cross3(b.T, c.T)
    det = dot3(a.T, bxc)
    bc = dot3(b.T, c.T)
    phi = np.arctan2(np.abs(det), bc - dot3(a.T, b.T) * dot3(a.T, c.T))
    m = _edge_nodes(float(np.max(phi, initial=0.0)), n)
    half = m // 2
    st, wst = _unit_gauss_legendre(m)
    t, wt = st[:half, None], wst[:half]
    omega = np.arctan2(norm3(bxc), bc)
    # e(t) is proportional to sin((1 - t) w) b + sin(t w) c; sinc keeps a
    # zero-length edge finite
    near = t * np.sinc(t * omega / np.pi)
    far = (1.0 - t) * np.sinc((1.0 - t) * omega / np.pi)
    scale = det / np.sinc(omega / np.pi)
    q = np.empty((3, n, len(tris)))
    points = np.moveaxis(q, 0, -1)
    g = np.empty((m, len(tris)))
    for j in range(m):
        wb, wc = (far[j], near[j]) if j < half else (near[m - 1 - j], far[m - 1 - j])
        e = wb * b + wc * c
        norm = norm3(e.T)
        _require_norm(norm)
        e /= norm
        cos_max = dot3(a.T, e.T)
        u = e - cos_max * a
        sin_max = norm3(u.T)
        theta_max = np.arctan2(sin_max, cos_max)
        ok = sin_max > 0.0
        d = np.divide(u, sin_max, out=np.zeros_like(u), where=ok)
        # psi' times the theta_max of the substitution th = s * theta_max
        jac = np.divide(theta_max, sin_max * sin_max, out=np.zeros_like(theta_max), where=ok)
        th = s[:, None] * theta_max
        sin_th = np.sin(th)
        np.multiply(sin_th, d[:, None], out=q)
        q += np.cos(th) * a[:, None]
        g[j] = scale * jac * (ws @ (density(points) * sin_th))
    return float(np.sum(wt @ (g[:half] + g[::-1][:half])))


# (node, weight) pairs of the positive half of numpy's leggauss(n) on
# [-1, 1], for the orders that FLUX_DEPTH = 4 reaches: 16 radial nodes and
# 4, 8 or 16 edge nodes.  leggauss symmetrizes its rule, so the negative half
# is the exact mirror image.
_LEGGAUSS_HALVES = {
    4: (
        (0.33998104358485626, 0.6521451548625464),
        (0.8611363115940526, 0.34785484513745357),
    ),
    8: (
        (0.18343464249564978, 0.36268378337836166),
        (0.525532409916329, 0.3137066458778869),
        (0.7966664774136267, 0.22238103445337443),
        (0.9602898564975362, 0.10122853629037706),
    ),
    16: (
        (0.09501250983763744, 0.18945061045506864),
        (0.2816035507792589, 0.18260341504492364),
        (0.45801677765722737, 0.16915651939500265),
        (0.6178762444026438, 0.1495959888165767),
        (0.755404408355003, 0.12462897125553407),
        (0.8656312023878318, 0.0951585116824926),
        (0.9445750230732326, 0.062253523938647456),
        (0.9894009349916499, 0.027152459411754176),
    ),
}


@functools.lru_cache(maxsize=None)
def _unit_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-node Gauss-Legendre rule on
    [0, 1], built once per order.

    Orders 4, 8 and 16 are read from ``_LEGGAUSS_HALVES``, which holds the
    bits of numpy's leggauss; any other order, reached only through an
    explicit ``depth``, calls leggauss, whose eigenvalue solve (Golub &
    Welsch 1969) is a LAPACK call.
    """
    if n in _LEGGAUSS_HALVES:
        xh, wh = np.array(_LEGGAUSS_HALVES[n]).T
        x, w = np.concatenate((-xh[::-1], xh)), np.concatenate((wh[::-1], wh))
    else:
        x, w = np.polynomial.legendre.leggauss(n)
    s, ws = 0.5 * (x + 1.0), 0.5 * w
    s.flags.writeable = ws.flags.writeable = False
    return s, ws


def _edge_nodes(phi: float, n: int) -> int:
    """Gauss-Legendre nodes on the far edges for a largest apex angle phi:
    4 while phi <= ``EDGE_PHI``, doubled with each doubling of that bound,
    at most n (a NaN angle takes n)."""
    m, bound = min(4, n), EDGE_PHI
    while m < n and not phi <= bound:
        m, bound = 2 * m, 2.0 * bound
    return m


def octant_faces() -> np.ndarray:
    """The 8 outward-oriented octant faces (sx ex, sy ey, sz ez) of the
    sphere, shape (8, 3, 3); a face with sx sy sz < 0 swaps its last two
    vertices."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
    faces = signs[:, :, None] * np.eye(3)
    flip = np.prod(signs, axis=1) < 0.0
    faces[flip] = faces[flip][:, [0, 2, 1]]
    return faces


def total_flux(density: Density, depth: int = FLUX_DEPTH) -> float:
    """Flux of the 2-form with round-area density ``density`` through the
    whole sphere: ``triangles_flux`` over the 8 octant faces, each about its
    first vertex."""
    if depth < 2:
        raise ValueError("depth must be >= 2")
    return triangles_flux(density, octant_faces(), depth)
