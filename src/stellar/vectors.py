"""Exact f/h/g-vector calculus and the linear identities built on it.

Everything here is integer or rational arithmetic; no floats.  Checkers
return residual reports rather than booleans so a failure localizes the
offending index.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import Complex, RangeError, _levels, _vertex_links


def f_vector(X: Complex) -> tuple[int, ...]:
    """Face counts (f_0, ..., f_d); f_{-1} = 1 is implicit."""
    return tuple(X.n_faces(t) for t in range(X.dim + 1))


def h_from_f(f: tuple[int, ...], d: int) -> tuple[int, ...]:
    """h_j = sum_{i=-1}^{j-1} (-1)^(j-i-1) C(d-i, j-i-1) f_i, 0 <= j <= d+1."""
    full = (1,) + tuple(f)  # index i+1 holds f_i
    return tuple(
        sum((-1) ** (j - i - 1) * comb(d - i, j - i - 1) * full[i + 1]
            for i in range(-1, j))
        for j in range(d + 2))


def g_from_f(f: tuple[int, ...], d: int) -> tuple[int, ...]:
    """g_0 = h_0 and g_j = h_j - h_{j-1}, 1 <= j <= d+1, with h = h_from_f(f, d)."""
    h = h_from_f(f, d)
    return h[:1] + tuple(b - a for a, b in zip(h, h[1:]))


def f_from_g(d: int, g: tuple[int, ...]) -> tuple[int, ...]:
    """Invert the g transform: f_i = sum_j C(d-j+2, i-j+1) g_j."""
    if len(g) != d + 2:
        raise RangeError(f"g-vector must have length d+2 = {d + 2}")
    if g[0] != 1:
        raise RangeError("g_0 must be 1")
    return tuple(
        sum(comb(d - j + 2, i - j + 1) * g[j] for j in range(i + 2))
        for i in range(d + 1))


@dataclass(frozen=True)
class VectorProfile:
    """Exact f-, h- and g-vectors of a complex (f excludes f_{-1} = 1)."""

    d: int
    f: tuple[int, ...]
    h: tuple[int, ...]
    g: tuple[int, ...]

    @staticmethod
    def of(X: Complex) -> "VectorProfile":
        f = f_vector(X)
        return VectorProfile(X.dim, f, h_from_f(f, X.dim), g_from_f(f, X.dim))


def h_vector(X: Complex) -> tuple[int, ...]:
    return h_from_f(f_vector(X), X.dim)


def g_vector(X: Complex) -> tuple[int, ...]:
    return g_from_f(f_vector(X), X.dim)


def euler_characteristic(X: Complex) -> int:
    return sum((-1) ** i * fi for i, fi in enumerate(f_vector(X)))


@dataclass(frozen=True)
class ResidualReport:
    """Per-index residuals of a linear identity; all_zero is the verdict."""

    name: str
    residuals: tuple
    detail: str = ""

    @property
    def all_zero(self) -> bool:
        return all(r == 0 for r in self.residuals)


def check_dehn_sommerville(X: Complex) -> ResidualReport:
    """Residuals g_{d+2-i} + g_i (zero for triangulated spheres)."""
    d = X.dim
    g = g_vector(X)
    res = tuple(g[d + 2 - i] + g[i] for i in range(1, d + 2))
    return ResidualReport("dehn-sommerville", res, f"d={d}")


def check_klee(X: Complex, chi: int | None = None) -> ResidualReport:
    """Residuals of g_{d+2-i} + g_i = (-1)^(i-1) C(d+2,i) (chi - chi(S^d)).

    ``chi`` defaults to the Euler characteristic computed from the face
    vector.  Zero residuals for triangulated closed manifolds.
    """
    d = X.dim
    g = g_vector(X)
    if chi is None:
        chi = euler_characteristic(X)
    chi_sphere = 2 if d % 2 == 0 else 0
    res = tuple(
        g[d + 2 - i] + g[i] - (-1) ** (i - 1) * comb(d + 2, i) * (chi - chi_sphere)
        for i in range(1, d + 2))
    return ResidualReport("klee", res, f"d={d} chi={chi}")


def link_g_identity(X: Complex, j: int) -> tuple[int, int]:
    """Both sides of sum_x g_j(lk x) = (d+2-j) g_j(X) + (j+1) g_{j+1}(X).

    Links are transformed with dimension parameter d-1, as in the
    two-way-counting proof of the identity.
    """
    if j < 0 or j > X.dim:
        raise RangeError(f"j={j} out of range 0..{X.dim}")
    return _link_g_sides(X)[j]


def _link_g_sides(X: Complex) -> list[tuple[int, int]]:
    """``link_g_identity(X, j)`` for every j, from one pass over the links."""
    d = X.dim
    lhs = [0] * (d + 1)
    for lk in _vertex_links(X):
        fl = tuple(map(len, _levels(lk, d)[1:]))  # counts up to dim d-1
        lhs = [a + b for a, b in zip(lhs, g_from_f(fl, d - 1))]
    g = g_vector(X)
    return [(lhs[j], (d + 2 - j) * g[j] + (j + 1) * g[j + 1])
            for j in range(d + 1)]


def euler_identity_check(m: int, d: int, t: int) -> tuple[Fraction, Fraction]:
    """Exact both sides of sum_j C(m-d-2, j-t-1)/C(m,j)
    = (m+1) / ((d+3) C(d+2,t+1))."""
    if not (0 <= t <= d):
        raise RangeError("need 0 <= t <= d")
    if m < d + 2:
        raise RangeError("need m >= d+2")
    lhs = sum((Fraction(comb(m - d - 2, j - t - 1), comb(m, j))
               for j in range(m + 1) if j - t - 1 >= 0), Fraction(0))
    rhs = Fraction(m + 1, (d + 3) * comb(d + 2, t + 1))
    return lhs, rhs


@dataclass(frozen=True)
class WkGvectorReport:
    """P15-style checks for a complex asserted to lie in W_k(d)."""

    k: int
    d: int
    ratio_residuals: tuple  # g_j/C(d+2,j) - (-1)^(j-k-1) g_{k+1}/C(d+2,k+1)
    chi_formula: tuple | None  # (chi_from_g, chi_from_f) for even d >= 2k

    @property
    def ok(self) -> bool:
        if any(r != 0 for r in self.ratio_residuals):
            return False
        return self.chi_formula is None or self.chi_formula[0] == self.chi_formula[1]


def w_k_gvector_relations(X: Complex, k: int) -> WkGvectorReport:
    """Check the determined part of the g-vector of a W_k(d) member and,
    for even d >= 2k, the Euler characteristic formula."""
    d = X.dim
    if not 0 <= k <= d:
        raise RangeError(f"k={k} out of range 0..{d}")
    g = g_vector(X)
    gk1 = Fraction(g[k + 1], comb(d + 2, k + 1))
    residuals = tuple(
        Fraction(g[j], comb(d + 2, j)) - (-1) ** (j - k - 1) * gk1
        for j in range(k + 2, d - k + 2))
    chi_pair = None
    if d >= 2 * k and d % 2 == 0:
        chi_from_g = 2 + (-1) ** k * 2 * gk1
        chi_pair = (chi_from_g, Fraction(euler_characteristic(X)))
    return WkGvectorReport(k, d, residuals, chi_pair)
