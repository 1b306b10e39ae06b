"""Scalar fields and drift rates on the unit sphere, specified as named built-ins.

Scalar fields (densities, potentials, conformal exponents) come from a small
closed family so configs can name them textually:

    constant(c)            f(q) = c
    height(a, c)           f(q) = a*z + c
    linear(ax, ay, az, c)  f(q) = ax*x + ay*y + az*z + c
    zonal_poly(c0, .., ck) f(q) = sum_k ck * z^k

The drift field W, whose dual 1-form enters the Lagrangian, is the rotation
about the z-axis W(q) = a * (z_hat x q); ``parse_drift`` reads its rate a:

    none                   a = 0
    azimuthal(a)           rate a

A zonal field is a polynomial in z.  Its coefficient tuple, and those of its
derivative and of its antiderivative from z = -1 (derived once, by the steps
of numpy's ``polyder`` and ``polyint`` and with their bits, without
importing ``numpy.polynomial``), are evaluated by the one Horner rule
``horner`` on floats and arrays alike: the field values, gradients, bounds,
the plain-Python evaluators of the flow and the latitude oracle of
``critical_values`` all go through it.  Only the bounds of a field of degree
three or more call numpy's ``polyroots``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import ValidationError

_SPEC_RE = re.compile(r"^\s*([a-z_]+)\s*(?:\(\s*([^)]*)\s*\))?\s*$")


def horner(coeffs: tuple[float, ...], z):
    """sum_k coeffs[k] z^k for a float or an array z, by Horner's rule.

    The steps are numpy's ``polyval``, so the values equal those of a
    ``numpy.polynomial.Polynomial`` on its default domain bit for bit (the
    domain map only turns a -0.0 argument into +0.0).
    """
    it = reversed(coeffs)
    out = next(it) + z * 0
    for ck in it:
        out = ck + out * z
    return out


def _parse_args(name: str, argstr: str | None) -> tuple[float, ...]:
    if argstr is None or argstr.strip() == "":
        return ()
    try:
        args = tuple(float(tok) for tok in argstr.split(","))
    except ValueError as exc:
        raise ValidationError(name, f"bad numeric argument list '{argstr}'") from exc
    if not all(np.isfinite(args)):
        raise ValidationError(name, f"non-finite numeric argument in '{argstr}'")
    return args


@dataclass(frozen=True)
class ScalarField:
    """Scalar function on S^2 from the built-in family, with ambient gradient."""

    kind: str
    coeffs: tuple[float, ...] = field(default_factory=tuple)

    @staticmethod
    def constant(c: float) -> "ScalarField":
        return ScalarField("constant", (float(c),))

    @staticmethod
    def height(a: float, c: float) -> "ScalarField":
        return ScalarField("linear", (0.0, 0.0, float(a), float(c)))

    @staticmethod
    def linear(ax: float, ay: float, az: float, c: float) -> "ScalarField":
        return ScalarField("linear", (float(ax), float(ay), float(az), float(c)))

    @staticmethod
    def zonal_poly(*c: float) -> "ScalarField":
        return ScalarField("zonal_poly", tuple(float(v) for v in c))

    @staticmethod
    def parse(spec: str) -> "ScalarField":
        m = _SPEC_RE.match(spec)
        if not m:
            raise ValidationError(spec, "unparseable field spec")
        name, args = m.group(1), _parse_args(m.group(1), m.group(2))
        if name == "constant":
            if len(args) != 1:
                raise ValidationError(spec, "constant(c) takes one argument")
            return ScalarField.constant(args[0])
        if name == "height":
            if len(args) != 2:
                raise ValidationError(spec, "height(a, c) takes two arguments")
            return ScalarField.height(args[0], args[1])
        if name == "linear":
            if len(args) != 4:
                raise ValidationError(spec, "linear(ax, ay, az, c) takes four arguments")
            return ScalarField.linear(*args)
        if name == "zonal_poly":
            if not args:
                raise ValidationError(spec, "zonal_poly needs at least one coefficient")
            return ScalarField.zonal_poly(*args)
        raise ValidationError(spec, f"unknown scalar field kind '{name}'")

    def __call__(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(np.float64(self.coeffs[0]), q.shape[:-1]).copy()
        if self.kind == "linear":
            ax, ay, az, c = self.coeffs
            return ax * q[..., 0] + ay * q[..., 1] + az * q[..., 2] + c
        if self.kind == "zonal_poly":
            return self.zonal_polynomial(q[..., 2])
        raise ValidationError(self.kind, "unknown scalar field kind")

    def grad(self, q: np.ndarray) -> np.ndarray:
        """Ambient gradient of the natural extension off the sphere."""
        q = np.asarray(q, dtype=float)
        g = np.zeros(q.shape)
        if self.kind == "constant":
            return g
        if self.kind == "linear":
            g[..., 0], g[..., 1], g[..., 2] = self.coeffs[0], self.coeffs[1], self.coeffs[2]
            return g
        if self.kind == "zonal_poly":
            g[..., 2] = self.zonal_derivative(q[..., 2])
            return g
        raise ValidationError(self.kind, "unknown scalar field kind")

    def scalar_fn(self):
        """Plain-Python evaluator (x, y, z) -> float for tight loops."""
        if self.kind == "constant":
            c = self.coeffs[0]
            return lambda x, y, z: c
        if self.kind == "linear":
            ax, ay, az, c = self.coeffs
            return lambda x, y, z: ax * x + ay * y + az * z + c
        if self.kind == "zonal_poly":
            poly = self.zonal_polynomial
            return lambda x, y, z: poly(z)
        raise ValidationError(self.kind, "unknown scalar field kind")

    def grad_fn(self):
        """Plain-Python ambient-gradient evaluator for tight loops."""
        if self.kind == "constant":
            return lambda x, y, z: (0.0, 0.0, 0.0)
        if self.kind == "linear":
            ax, ay, az, _ = self.coeffs
            return lambda x, y, z: (ax, ay, az)
        if self.kind == "zonal_poly":
            dpoly = self.zonal_derivative
            return lambda x, y, z: (0.0, 0.0, dpoly(z))
        raise ValidationError(self.kind, "unknown scalar field kind")

    @cached_property
    def is_zero(self) -> bool:
        """True when every coefficient is zero, so the field vanishes."""
        return all(c == 0.0 for c in self.coeffs)

    @property
    def is_zonal(self) -> bool:
        if self.kind == "linear":
            return self.coeffs[0] == 0.0 and self.coeffs[1] == 0.0
        return True

    @cached_property
    def zonal_coeffs(self) -> tuple[float, ...]:
        """Coefficients of the field as a polynomial in z, lowest degree
        first (requires ``is_zonal``)."""
        if not self.is_zonal:
            raise ValidationError(self.spec(), "field is not zonal")
        if self.kind == "linear":
            return (self.coeffs[3], self.coeffs[2])
        return self.coeffs

    @cached_property
    def zonal_polynomial(self):
        """The field as a polynomial in z: a callable on floats and arrays."""
        return partial(horner, self.zonal_coeffs)

    @cached_property
    def zonal_derivative_coeffs(self) -> tuple[float, ...]:
        """Coefficients of d/dz of ``zonal_polynomial``, by numpy's polyder
        steps: k * c[k] for k >= 1, and c[0] * 0 for a constant."""
        c = self.zonal_coeffs
        if len(c) == 1:
            return (c[0] * 0,)
        return tuple(k * c[k] for k in range(1, len(c)))

    @cached_property
    def zonal_derivative(self):
        """d/dz of ``zonal_polynomial``."""
        return partial(horner, self.zonal_derivative_coeffs)

    @cached_property
    def zonal_antiderivative_coeffs(self) -> tuple[float, ...]:
        """Coefficients of the antiderivative of ``zonal_polynomial`` that
        vanishes at z = -1, by numpy's ``polyint(lbnd=-1.0)`` steps: the
        term c[k] / (k + 1) of degree k + 1, and the constant
        c[0] * 0 + (0 - the polynomial at z = -1); the zero polynomial keeps
        its one term, c[0] + 0."""
        c = self.zonal_coeffs
        if len(c) == 1 and c[0] == 0.0:
            return (c[0] + 0,)
        zero = c[0] * 0
        rest = tuple(ck / (k + 1) for k, ck in enumerate(c))
        return (zero + (0 - horner((zero,) + rest, -1.0)),) + rest

    @cached_property
    def zonal_antiderivative(self):
        """The antiderivative of ``zonal_polynomial`` that vanishes at z = -1."""
        return partial(horner, self.zonal_antiderivative_coeffs)

    def bounds(self) -> tuple[float, float]:
        """Exact (min, max) of the field over the sphere.

        A zonal field is a polynomial p(z) on [-1, 1], so its extrema lie at
        z = +-1 or at real roots of p'.  The real part of every root of p' is
        tried, clipped to [-1, 1]: each such z is a point of the sphere, so
        the spare candidates cannot move the result, and no root is lost to a
        tolerance on its imaginary part.

        The roots are numpy's ``polyroots`` of p' with its trailing zeros
        trimmed, and only a p' of degree two or more reaches it (an
        eigenvalue solve of the companion matrix).  A constant p' has no
        root, and a linear one the root -d0 / d1, polyroots' own rule for
        two coefficients.
        """
        if not self.is_zonal:
            ax, ay, az, c = self.coeffs
            r = float(np.sqrt(ax * ax + ay * ay + az * az))
            return c - r, c + r
        d = self.zonal_derivative_coeffs
        while len(d) > 1 and d[-1] == 0.0:
            d = d[:-1]
        if len(d) > 2:
            roots = np.polynomial.polynomial.polyroots(d).real
        else:
            roots = np.array([-d[0] / d[1]] if len(d) == 2 else [])
        z = np.concatenate(([-1.0, 1.0], np.clip(roots, -1.0, 1.0)))
        vals = self.zonal_polynomial(z)
        return float(vals.min()), float(vals.max())

    def spec(self) -> str:
        args = ", ".join(repr(c) for c in self.coeffs)
        return f"{self.kind}({args})"


def parse_drift(spec: str) -> float:
    """Rate a of the drift field W(q) = a * (z_hat x q): ``none`` is 0."""
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValidationError(spec, "unparseable drift spec")
    name, args = m.group(1), _parse_args(m.group(1), m.group(2))
    if name == "none":
        if args:
            raise ValidationError(spec, "none takes no arguments")
        return 0.0
    if name == "azimuthal":
        if len(args) != 1:
            raise ValidationError(spec, "azimuthal(a) takes one argument")
        return args[0]
    raise ValidationError(spec, f"unknown drift kind '{name}'")
