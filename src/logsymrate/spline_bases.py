"""Spline bases and roughness penalties for nonparametric terms.

Two term kinds are supported. ``ncs`` is the classical smoothing-spline
setup: coefficients are the function values at the distinct covariate
values, the penalty is the integrated squared second derivative of the
natural cubic interpolant, assembled from the banded Q/R matrices built
out of knot gaps. ``psp`` is the P-spline setup: a cubic B-spline basis on
equally spaced knots with a discrete difference penalty on adjacent
coefficients. Both evaluate the basis once per distinct covariate value
and gather the rows, which gives the bits of evaluating every row.

The evaluators are numpy in the operation order of the scipy.interpolate
calls they replace, whose bits they give without loading scipy:
B-spline rows by the Cox-de Boor recursion of ``BSpline.design_matrix``,
and the natural cubic spline as ``CubicSpline`` builds and evaluates it,
its knot slopes from a numpy transcription of LAPACK ``dgtsv``, the
tridiagonal solver that ``scipy.linalg.solve_banded`` calls.

Blocks are centered against the submodel intercept before fitting: the
basis is reparameterized onto an orthonormal complement of the
"sum of fitted values" functional, which drops one column and keeps the
penalty congruent.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .errors import SpecificationError, _at_least, _positive, _whole

TERM_KINDS = ("ncs", "psp")
COVARIATES = ("age", "period")
PSP_DEGREE = 3  # cubic B-splines throughout


@dataclass(frozen=True)
class SplineTerm:
    """Declaration of one nonparametric term.

    ``lam`` is the penalty weight, a positive finite number; ``None``
    means "select on the AIC grid". ``basis_dim`` and ``diff_order`` apply
    to psp terms only. ncs knots are the distinct covariate values and psp
    knots are equally spaced.
    """

    kind: str
    covariate: str
    lam: Union[float, None] = None
    basis_dim: int = 23
    diff_order: int = 2

    def __post_init__(self):
        if self.kind not in TERM_KINDS:
            raise SpecificationError(f"unknown term kind {self.kind!r}; expected one of {TERM_KINDS}")
        if self.covariate not in COVARIATES:
            raise SpecificationError(
                f"unknown covariate {self.covariate!r}; expected one of {COVARIATES}"
            )
        if self.lam is not None:
            object.__setattr__(self, "lam", _positive(self.lam, "term lambda"))
        basis_dim, diff_order = _check_sizes(self.basis_dim, self.diff_order,
                                             psp=self.kind == "psp")
        object.__setattr__(self, "basis_dim", basis_dim)
        object.__setattr__(self, "diff_order", diff_order)


def _check_sizes(basis_dim, diff_order, psp: bool = True) -> tuple:
    """A term's basis_dim and diff_order as ints, after their rules: whole
    numbers, and diff_order >= 1. A psp basis also needs basis_dim >=
    diff_order + 1 and basis_dim > PSP_DEGREE."""
    basis_dim = _whole(basis_dim, "term basis_dim")
    diff_order = _at_least(_whole(diff_order, "term diff_order"), "diff_order", 1)
    if psp and basis_dim < diff_order + 1:
        raise SpecificationError(f"psp basis_dim {basis_dim} too small for diff_order "
                                 f"{diff_order}; need at least diff_order + 1")
    if psp and basis_dim <= PSP_DEGREE:
        raise SpecificationError(f"psp basis_dim {basis_dim} must exceed the degree {PSP_DEGREE}")
    return basis_dim, diff_order


@dataclass(frozen=True)
class BasisBlock:
    """Evaluated basis B (n x q), penalty K (q x q), and evaluation recipe.

    ``transform`` maps raw basis columns to the current (possibly
    centered) columns, so evaluation at new covariate values is
    ``raw_basis(x) @ transform``. An ncs block keeps its interpolants'
    coefficients (``_ncs_coefficients``) in ``coef``, computed from the
    knots when not given.
    """

    kind: str
    B: np.ndarray
    K: np.ndarray
    knots: np.ndarray
    x_min: float
    x_max: float
    centered: bool = False
    transform: np.ndarray = field(default=None)  # type: ignore[assignment]
    coef: Union[np.ndarray, None] = None

    def __post_init__(self):
        if self.transform is None:
            object.__setattr__(self, "transform", np.eye(self.B.shape[1]))
        if self.coef is None and self.kind == "ncs":
            object.__setattr__(self, "coef", _ncs_coefficients(self.knots))

    @property
    def ncols(self) -> int:
        return self.B.shape[1]

    def evaluate(self, x) -> np.ndarray:
        """Basis rows for new covariate values, in current columns."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "ncs":
            raw = _ncs_eval_matrix(self.knots, self.coef, x)
        else:
            if np.any((x < self.x_min) | (x > self.x_max)):
                warnings.warn(
                    "psp basis evaluated outside the training range "
                    f"[{self.x_min}, {self.x_max}]; boundary-polynomial "
                    "extrapolation in effect",
                    stacklevel=2,
                )
            raw = _bspline_matrix(self.knots, x)
        return raw @ self.transform


def _bspline_matrix(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cubic B-spline design matrix on increasing knots t; outside
    [t[k], t[n]] the end intervals' polynomials continue."""
    k = PSP_DEGREE
    n = len(t) - k - 1
    ell = np.clip(np.searchsorted(t, x, side="right") - 1, k, n - 1)
    h = np.zeros((len(x), k + 1))
    h[:, 0] = 1.0
    for j in range(1, k + 1):
        hh = h[:, :j].copy()
        h[:, 0] = 0.0
        for i in range(1, j + 1):
            xb, xa = t[ell + i], t[ell + i - j]
            w = hh[:, i - 1] / (xb - xa)
            h[:, i - 1] += w * (xb - x)
            h[:, i] = w * (x - xa)
    out = np.zeros((len(x), n))
    # added to zeros, as scipy's sparse-to-dense copy does: -0.0 reads +0.0
    out[np.arange(len(x))[:, None], ell[:, None] - k + np.arange(k + 1)] += h
    return out


def _gtsv(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and superdiagonals dl,
    d and du for the columns of b, in place, as LAPACK dgtsv does for more
    than one right-hand side (Anderson et al., LAPACK Users' Guide, 1999).

    Gaussian elimination pivots rows i and i + 1 when |d_i| < |dl_i|, and
    keeps the fill-in of that interchange in dl_i, which is set to 0 where
    no rows were swapped. All four arrays are overwritten; b holds x."""
    n = len(d)
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i], temp = dl[i], d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[[i, i + 1]] = b[i + 1], b[i] - fact * b[i + 1]
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def _ncs_coefficients(knots: np.ndarray) -> np.ndarray:
    """Power-basis coefficients c (4, q-1, q) of the natural cubic
    interpolants of the unit vectors, in s = x - knots[i] on interval i."""
    q = len(knots)
    y = np.eye(q)
    h = np.diff(knots)
    dx = h[:, None]
    slope = np.diff(y, axis=0) / dx
    # slopes s at the knots: a tridiagonal system, f'' = 0 at both ends
    d = np.empty(q)
    d[1:-1] = 2 * (h[:-1] + h[1:])
    d[0], d[-1] = 2 * h[0], 2 * h[-1]
    du = np.concatenate((h[:1], h[:-1]))
    dl = np.concatenate((h[1:], h[-1:]))
    b = np.empty((q, q))
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0] = 3 * (y[1] - y[0])
    b[-1] = 3 * (y[-1] - y[-2])
    s = _gtsv(dl, d, du, b)
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))


def _power_sum(c: np.ndarray, knots: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate the piecewise polynomial c at x, on the last interval at
    the right end and on the end intervals outside the knots."""
    i = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, len(knots) - 2)
    s = (x - knots[i])[:, None]
    res, z = 0.0, 1.0
    for kp in range(len(c)):
        res = res + c[len(c) - 1 - kp, i] * z
        z = z * s
    return res


def _ncs_eval_matrix(knots: np.ndarray, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cardinal natural-cubic-spline interpolation matrix, from the knots'
    ``_ncs_coefficients`` c.

    Row i gives the weights carrying function values at the knots to the
    natural interpolant's value at x[i]. Outside the knot range the
    natural spline continues linearly, so extrapolation uses the value
    and first derivative at the nearest boundary knot.
    """
    out = _power_sum(c, knots, x)
    ends = knots[[0, -1]]
    value = _power_sum(c, knots, ends)
    slope = _power_sum(c[:3] * np.array([3.0, 2.0, 1.0])[:, None, None], knots, ends)
    lo = x < knots[0]
    out[lo] = value[0] + np.outer(x[lo] - knots[0], slope[0])
    hi = x > knots[-1]
    out[hi] = value[1] + np.outer(x[hi] - knots[-1], slope[1])
    return out


def ncs_build(x) -> BasisBlock:
    """Natural-cubic-spline block with value-at-knot coefficients.

    The penalty is K = Q R^-1 Q^T over knot gaps h_j: column j of Q holds
    1/h_j, -(1/h_j + 1/h_{j+1}), 1/h_{j+1} at rows j, j+1, j+2, and R is
    tridiagonal with diagonal (h_j + h_{j+1})/3 and off-diagonal h_{j+1}/6.
    a^T K a then equals the integrated squared second derivative of the
    natural interpolant through (knots, a).
    """
    t, idx = np.unique(np.asarray(x, dtype=float), return_inverse=True)
    q = len(t)
    if q < 3:
        raise SpecificationError(
            f"ncs term needs at least 3 distinct covariate values, got {q}"
        )
    h = np.diff(t)

    Q = np.zeros((q, q - 2))
    R = np.zeros((q - 2, q - 2))
    for j in range(q - 2):
        Q[j, j] = 1.0 / h[j]
        Q[j + 1, j] = -(1.0 / h[j] + 1.0 / h[j + 1])
        Q[j + 2, j] = 1.0 / h[j + 1]
        R[j, j] = (h[j] + h[j + 1]) / 3.0
        if j + 1 < q - 2:
            R[j, j + 1] = R[j + 1, j] = h[j + 1] / 6.0
    K = Q @ np.linalg.solve(R, Q.T)
    K = (K + K.T) / 2.0

    c = _ncs_coefficients(t)
    return BasisBlock(kind="ncs", B=_ncs_eval_matrix(t, c, t)[idx], K=K, knots=t,
                      x_min=float(t[0]), x_max=float(t[-1]), coef=c)


def psp_build(x, basis_dim: int = 23, diff_order: int = 2) -> BasisBlock:
    """P-spline block: cubic B-splines, difference penalty K = D^T D."""
    basis_dim, diff_order = _check_sizes(basis_dim, diff_order)
    u, idx = np.unique(np.asarray(x, dtype=float), return_inverse=True)
    x_min, x_max = float(u[0]), float(u[-1])
    if not x_max > x_min:
        raise SpecificationError("psp term needs a non-degenerate covariate range")

    nseg = basis_dim - PSP_DEGREE
    h = (x_max - x_min) / nseg
    t = x_min + h * np.arange(-PSP_DEGREE, nseg + PSP_DEGREE + 1)

    B = _bspline_matrix(t, u)[idx]
    D = np.diff(np.eye(basis_dim), n=diff_order, axis=0)
    K = D.T @ D
    return BasisBlock(kind="psp", B=B, K=K, knots=t, x_min=x_min, x_max=x_max)


def center_block(block: BasisBlock) -> BasisBlock:
    """Reparameterize so fitted term values sum to zero over observations.

    Uses a deterministic Householder reflector to pick an orthonormal
    basis Z of the null space of c^T, c = B^T 1, then maps B -> B Z and
    K -> Z^T K Z. Idempotent: a centered block is returned unchanged.
    """
    if block.centered:
        return block
    c = block.B.sum(axis=0)
    norm = float(np.linalg.norm(c))
    if norm == 0.0:
        # Constraint already holds identically; nothing to project out.
        return replace(block, centered=True)
    v = c.copy()
    v[0] += np.copysign(norm, c[0]) if c[0] != 0 else norm
    H = np.eye(len(c)) - 2.0 * np.outer(v, v) / float(v @ v)
    Z = H[:, 1:]
    Bc = block.B @ Z
    Kc = Z.T @ block.K @ Z
    Kc = (Kc + Kc.T) / 2.0
    return replace(block, B=Bc, K=Kc, centered=True, transform=block.transform @ Z)


def build_term_block(term: SplineTerm, x) -> BasisBlock:
    """Build and center the block declared by ``term``."""
    if term.kind == "ncs":
        block = ncs_build(x)
    else:
        block = psp_build(x, basis_dim=term.basis_dim, diff_order=term.diff_order)
    return center_block(block)


def term_label(submodel: str, term: SplineTerm) -> str:
    return f"{submodel}:{term.kind}({term.covariate})"
