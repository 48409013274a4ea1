"""Matrix-valued decay kernels for multi-asset transient price impact.

A decay kernel is a function ``G : [0, inf) -> R^{KxK}``; ``G[i, j](t)`` is
the impact on the price of asset ``i``, a lag ``t`` after trading one unit
of asset ``j``.  The two-sided extension ``tilde`` mirrors the kernel to
negative lags by transposition and symmetrizes the value at lag 0; it is the
function that enters the execution-cost quadratic form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

__all__ = [
    "ScalarFunction",
    "ExpDecay",
    "GaussianSquared",
    "LinearPolya",
    "Constant",
    "PowerCapped",
    "DecayKernel",
    "PermanentKernel",
    "MatrixExpKernel",
    "MatrixFunctionKernel",
    "DiagCongruenceKernel",
    "Exp2x2Kernel",
    "CrossExpKernel",
    "Linear2x2Kernel",
    "ClampedExpKernel",
    "JordanExpKernel",
    "ScalarTimesMatrixKernel",
    "LeftMultiplyKernel",
    "CongruenceKernel",
    "PlusTemporaryKernel",
    "check_structure",
    "check_shape_properties",
    "analytic_shape_flags",
    "ShapeWitness",
    "Verdict",
    "PropertyReport",
]

SYM_TOL = 1e-10
MAX_CONDITION = 1e12
SHAPE_TOL = 1e-9
STRUCTURE_SAMPLES = 48
# decay rates (eigenvalues of a generator B) at or below this count as zero
RATE_FLOOR = 1e-12
# closed-form parameters this close (math.isclose) count as equal
CLOSE_REL_TOL = 1e-12
CLOSE_ABS_TOL = 1e-14
# largest max|O O^T - I| of a matrix accepted as orthogonal
ORTHOGONAL_TOL = 1e-9
# a located shape violation must exceed this, relative to 1 + max|G(t)|
SHAPE_WITNESS_FLOOR = 1e-13


def _maxabs(a) -> float:
    """``max|a|`` without an ``abs(a)`` temporary (0 for an empty array)."""
    a = np.asarray(a)
    return max(float(a.max()), -float(a.min())) if a.size else 0.0


def _as_square(M, name: str, k: Optional[int] = None) -> np.ndarray:
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {M.shape}")
    if k is not None and M.shape[0] != k:
        raise ValueError(f"{name} must be {k}x{k}, got {M.shape[0]}x{M.shape[0]}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} must have finite entries")
    return M


def _isclose(x, y) -> bool:
    return math.isclose(x, y, rel_tol=CLOSE_REL_TOL, abs_tol=CLOSE_ABS_TOL)


def _is_symmetric(M: np.ndarray) -> bool:
    return _maxabs(M - M.T) <= SYM_TOL * (1.0 + _maxabs(M))


def _check_symmetric(M: np.ndarray, name: str) -> None:
    if not _is_symmetric(M):
        raise ValueError(f"{name} must be symmetric")


def _symmetric_psd_eig(B: np.ndarray, name: str):
    """Eigendecomposition of a symmetric PSD matrix.

    Rejects asymmetry and eigenvalues below ``-SYM_TOL * (1 + max|B|)``;
    surviving tiny negative eigenvalues are clamped to 0.
    """
    _check_symmetric(B, name)
    vals, vecs = np.linalg.eigh(0.5 * (B + B.T))
    if vals[0] < -SYM_TOL * (1.0 + _maxabs(B)):
        raise ValueError(
            f"{name} must be positive semidefinite (PSD); smallest eigenvalue {vals[0]:.3e}"
        )
    return np.maximum(vals, 0.0), vecs


def _min_eigenpair(matrix: np.ndarray):
    """The smallest eigenvalue of a symmetric matrix (its lower triangle) and
    a unit eigenvector for it, ``(value, vector)``, from one partial eigh."""
    vals, vecs = scipy.linalg.eigh(matrix, subset_by_index=[0, 0])
    return float(vals[0]), vecs[:, 0]


def _scaled_frame(M: np.ndarray, scale) -> Optional[tuple]:
    """The eigenframe ``(O, decays)`` of ``G(t) = scale(t) M``: the rows of
    ``O`` are the eigenvectors of ``M``, if ``M`` is exactly symmetric."""
    if not np.array_equal(M, M.T):
        return None
    vals, vecs = np.linalg.eigh(M)
    return vecs.T, lambda ts: np.multiply.outer(scale(ts), vals)


# ---------------------------------------------------------------------------
# scalar decay profiles
# ---------------------------------------------------------------------------


class ScalarFunction:
    """Scalar decay profile ``g(x)`` for ``x >= 0``.

    Subclasses carry analytic flags (monotonicity, convexity and whether
    ``t -> g(|t|)`` is a positive definite function) that downstream
    classification may rely on without sampling.  ``positive_definite`` is
    ``None`` when unknown.
    """

    tag: str
    nonincreasing: bool
    convex: bool
    positive_definite: Optional[bool]
    strictly_positive_definite: bool

    def __call__(self, x):
        raise NotImplementedError

    def to_dict(self) -> dict:
        """The profile's config description: its ``tag`` and each dataclass field."""
        return {"tag": self.tag, **{f.name: getattr(self, f.name) for f in fields(self)}}

    def pd_class(self) -> Optional[str]:
        """``"strict_pd"``, ``"pd"`` or None (unknown) for ``t -> g(|t|)``."""
        if not self.positive_definite:
            return None
        return "strict_pd" if self.strictly_positive_definite else "pd"

    def exp_term(self) -> Optional[tuple]:
        """``(c, r)`` with ``g(x) = c exp(-r x)`` and ``r >= 0``, or None."""
        return None


@dataclass(frozen=True)
class ExpDecay(ScalarFunction):
    """``x -> exp(-rate * x)``."""

    rate: float
    tag = "exp_decay"
    nonincreasing = True
    convex = True
    positive_definite = True
    strictly_positive_definite = True

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("exp_decay rate must be positive")

    def __call__(self, x):
        with np.errstate(over="ignore"):  # rate * x = inf near the float limit: exp(-inf) = 0
            return np.exp(-self.rate * np.asarray(x, dtype=float))

    def exp_term(self):
        return 1.0, self.rate


@dataclass(frozen=True)
class GaussianSquared(ScalarFunction):
    """``x -> exp(-x**2)``; nonincreasing but not convex on [0, inf)."""

    tag = "gaussian_sq"
    nonincreasing = True
    convex = False
    positive_definite = True
    strictly_positive_definite = True

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # x * x = inf beyond 1.3e154: exp(-inf) = 0
            return np.exp(-(x * x))


@dataclass(frozen=True)
class LinearPolya(ScalarFunction):
    """``x -> max(level - slope * x, 0)``: linear decay hitting zero."""

    level: float
    slope: float
    tag = "linear_polya"
    nonincreasing = True
    convex = True
    positive_definite = True
    strictly_positive_definite = True

    def __post_init__(self):
        if not all(v > 0 and math.isfinite(v) for v in (self.level, self.slope)):
            raise ValueError("linear_polya needs finite positive level and slope")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):  # slope * x = inf near the float limit: the floor 0
            return np.maximum(self.level - self.slope * x, 0.0)


@dataclass(frozen=True)
class Constant(ScalarFunction):
    """``x -> value`` with ``value >= 0``."""

    value: float
    tag = "constant"
    nonincreasing = True
    convex = True
    positive_definite = True
    strictly_positive_definite = False

    def __post_init__(self):
        if not (self.value >= 0 and math.isfinite(self.value)):
            raise ValueError("constant value must be nonnegative")

    def __call__(self, x):
        return np.full(np.asarray(x, dtype=float).shape, self.value)

    def exp_term(self):
        return self.value, 0.0


@dataclass(frozen=True)
class PowerCapped(ScalarFunction):
    """``x -> min(x**-exponent, cap)``: capped power-law decay.

    Nonincreasing but not convex (downward derivative jump where the cap
    releases), and not known to be positive definite in general.
    """

    exponent: float
    cap: float
    tag = "power_capped"
    nonincreasing = True
    convex = False
    positive_definite = None
    strictly_positive_definite = False

    def __post_init__(self):
        if not all(v > 0 and math.isfinite(v) for v in (self.exponent, self.cap)):
            raise ValueError("power_capped needs finite positive exponent and cap")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):  # 0 ** -exponent is inf: the cap
            return np.minimum(x ** (-self.exponent), self.cap)


_SCALAR_PROFILES = {
    cls.tag: cls for cls in (ExpDecay, GaussianSquared, LinearPolya, Constant, PowerCapped)
}


def scalar_function_from_dict(d: dict) -> ScalarFunction:
    """Rebuild a scalar profile from :meth:`ScalarFunction.to_dict`'s
    description: the class its ``tag`` names, each field read as a float.
    An unknown or missing tag raises ValueError, a missing field KeyError."""
    try:
        cls = _SCALAR_PROFILES[d["tag"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"unknown scalar function description: {d!r}") from exc
    return cls(**{f.name: float(d[f.name]) for f in fields(cls)})


# ---------------------------------------------------------------------------
# decay kernels
# ---------------------------------------------------------------------------


class DecayKernel:
    """Base class; immutable after construction and safe to share."""

    dimension: int
    family: str
    # the constructor's arguments in order: the config keys, and the attributes to_dict reads
    params: tuple = ()

    def _values(self, ts: np.ndarray) -> np.ndarray:
        """Kernel values at nonnegative lags, shape (len(ts), K, K)."""
        raise NotImplementedError

    def at_many(self, ts) -> np.ndarray:
        """``G(t)`` for an array of lags ``t >= 0``, shape (m, K, K)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        if ts.size and np.min(ts) < 0:
            raise ValueError("decay kernels are defined for lags t >= 0")
        return self._values(ts)

    def at(self, t: float) -> np.ndarray:
        """``G(t)`` for a single lag ``t >= 0``."""
        return self.at_many([float(t)])[0]

    def tilde_many(self, ts) -> np.ndarray:
        """Two-sided extension at arbitrary lags, shape (m, K, K).

        ``G(t)`` for ``t > 0``, ``G(-t)^T`` for ``t < 0`` and the
        symmetrized value (plus any temporary jump) at ``t == 0``.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = self._values(np.abs(ts))
        neg = ts < 0
        if np.any(neg):
            out[neg] = np.transpose(out[neg], (0, 2, 1))
        zero = ts == 0
        if np.any(zero):
            g0 = out[zero]
            out[zero] = 0.5 * (g0 + np.transpose(g0, (0, 2, 1)))
        return out

    def tilde(self, t: float) -> np.ndarray:
        return self.tilde_many([float(t)])[0]

    def to_dict(self) -> dict:
        """The kernel's config description ``{"family": ..., **params}``, each
        parameter read from its attribute: an array as nested lists, a kernel
        or scalar profile (one or a tuple) as its own description."""
        params = {key: _describe(getattr(self, key)) for key in self.params}
        return {"family": self.family, **params}

    def structure(self) -> Optional[tuple]:
        """Closed-form ``(symmetric, commuting)``, or None."""
        return None

    def shape_flags(self) -> Optional[dict]:
        """Closed-form nonnegative/nonincreasing/convex flags of the
        quadratic forms ``x^T G(t) x``, or None."""
        return None

    def pd_class(self) -> Optional[str]:
        """The family's positive definiteness criterion, or None if it has
        none: ``"strict_pd"``, ``"pd"``, ``"not_pd"`` (violations show on
        grids within the class's ``violation_box = (span_max, n_max)``) or
        ``"undetermined"`` (the criterion does not apply)."""
        return None

    def eigenframe(self) -> Optional[tuple]:
        """Closed-form ``(O, decays)`` with ``G(t) = O^T diag(decays(ts)[m]) O``
        and ``decays(ts)`` of shape (len(ts), K), or None; the commuting
        solve route takes exactly the kernels that have one."""
        return None

    def realization(self) -> Optional[tuple]:
        """Closed-form ``(P, rates, Q)`` with ``G(t) = P diag(exp(-t rates)) Q^T``
        for ``t > 0``, ``P`` and ``Q`` of shape (K, R) and ``rates >= 0`` of
        shape (R,), or None.  A sum of exponentials has a Gram that is
        quasiseparable of order R on every grid (:class:`posdef.StateSpaceGram`)."""
        return None

    def __repr__(self):
        return f"{type(self).__name__}(K={self.dimension})"


class _EigenBasisKernel(DecayKernel):
    """Kernels of the form ``G(t) = sum_i g_i(t) u_i u_i^T`` with
    orthonormal ``u_i`` (stored as columns of ``eigvecs``).

    Simultaneously diagonalizable: the shape properties and (strict)
    positive definiteness hold exactly when every decay ``g_i`` has them.
    Subclasses give the decays of the nonconstant directions
    (``_active_decays``) and every direction's ``pd_class``
    (``_decay_classes``).
    """

    eigvecs: np.ndarray  # (K, K), columns are the common eigenvectors

    def _set_eigvecs(self, U: np.ndarray) -> None:
        """Store the eigenbasis and the products that :meth:`_values` needs."""
        rows, cols = np.tril_indices(U.shape[0])
        self.eigvecs = U
        # column p holds u_aj u_bj (j = 0..K-1) for the p-th pair a >= b
        self._pair_products = np.ascontiguousarray((U[rows] * U[cols]).T)
        index = np.empty(U.shape, dtype=np.intp)
        index[rows, cols] = index[cols, rows] = np.arange(rows.size)
        self._pair_index = index.ravel()

    def _diagonals(self, ts: np.ndarray) -> np.ndarray:
        """Per-eigendirection decay values, shape (m, K)."""
        raise NotImplementedError

    def _values(self, ts):
        # one GEMM over the K(K+1)/2 distinct entries; entries (a, b) and
        # (b, a) read the same column, so every G(t) is exactly symmetric
        pairs = self._diagonals(ts) @ self._pair_products
        k = self.dimension
        return np.take(pairs, self._pair_index, axis=1).reshape(ts.size, k, k)

    def structure(self):
        return True, True

    def eigenframe(self):
        return self.eigvecs.T, self._diagonals

    def realization(self):
        # direction i decays as c_i exp(-r_i t) when its profile is ExpDecay or Constant
        terms = self._exp_terms()
        if terms is None:
            return None
        scales, rates = terms
        return self.eigvecs * scales, rates, self.eigvecs.copy()

    def shape_flags(self):
        # the constant (zero-rate) directions have all three properties
        decays = self._active_decays()
        return {
            "nonnegative": True,
            "nonincreasing": all(g.nonincreasing for g in decays),
            "convex": all(g.convex for g in decays),
        }

    def pd_class(self):
        classes = self._decay_classes()
        if None in classes:
            return None
        return "strict_pd" if all(c == "strict_pd" for c in classes) else "pd"


class MatrixFunctionKernel(_EigenBasisKernel):
    """``G(t) = g(t B)`` through the spectral decomposition of ``B``.

    With ``B = O^T diag(rho) O`` symmetric PSD, ``G(t)`` applies the scalar
    profile to each eigenvalue: ``O^T diag(g(t rho_1), ..., g(t rho_K)) O``.
    """

    family = "matrix_function"
    params = ("B", "scalar_fn")

    def __init__(self, B, scalar_fn: ScalarFunction):
        B = _as_square(B, "B")
        self.eigenvalues, eigvecs = _symmetric_psd_eig(B, "B")
        self._set_eigvecs(eigvecs)
        B.setflags(write=False)
        self.B = B
        self.scalar_fn = scalar_fn
        self.dimension = B.shape[0]

    def _diagonals(self, ts):
        with np.errstate(over="ignore"):  # t * rho = inf near the float limit: g(inf), the limit
            return self.scalar_fn(np.outer(ts, self.eigenvalues))

    def _active_decays(self):
        # zero-rate eigendirections hold the constant g(0)
        return [self.scalar_fn] if np.any(self.eigenvalues > RATE_FLOOR) else []

    def _decay_classes(self):
        base = self.scalar_fn.pd_class()
        return [base if base is None or rho > RATE_FLOOR else "pd" for rho in self.eigenvalues]

    def _exp_terms(self):
        # g(t rho) = c exp(-(r rho) t)
        term = self.scalar_fn.exp_term()
        if term is None:
            return None
        c, r = term
        return np.full(self.dimension, c), r * self.eigenvalues


class MatrixExpKernel(MatrixFunctionKernel):
    """``G(t) = exp(-t B)`` for symmetric positive semidefinite ``B``: the
    matrix function of ``ExpDecay(1.0)``."""

    family = "matrix_exp"
    params = ("B",)

    def __init__(self, B):
        super().__init__(B, ExpDecay(1.0))

    def _diagonals(self, ts):
        # the same values as the inherited ExpDecay(1.0) call, since
        # -1.0 * x == -x, with a lower measured peak memory
        with np.errstate(over="ignore"):  # t * rho = inf near the float limit: exp(-inf) = 0
            return np.exp(-np.outer(ts, self.eigenvalues))


class DiagCongruenceKernel(_EigenBasisKernel):
    """``G(t) = O^T diag(g_1(t), ..., g_K(t)) O`` for orthogonal ``O``."""

    family = "diag_congruence"
    params = ("O", "decays")

    def __init__(self, O, decays: Sequence[ScalarFunction]):
        O = _as_square(O, "O")
        k = O.shape[0]
        if _maxabs(O @ O.T - np.eye(k)) > ORTHOGONAL_TOL:
            raise ValueError("O must be orthogonal")
        if len(decays) != k:
            raise ValueError(f"need {k} scalar decays, got {len(decays)}")
        O.setflags(write=False)
        self.O = O
        self._set_eigvecs(O.T)
        self.decays = tuple(decays)
        self.dimension = k

    def _diagonals(self, ts):
        return np.stack([g(ts) for g in self.decays], axis=1)

    def _active_decays(self):
        return self.decays

    def _decay_classes(self):
        return [g.pd_class() for g in self.decays]

    def _exp_terms(self):
        terms = [g.exp_term() for g in self.decays]
        return None if None in terms else np.array(terms).T  # rows: scales, rates


class _Entrywise2x2Kernel(DecayKernel):
    """2x2 kernel whose entry (i, j) starts at ``a_ij`` and decays at rate
    ``b_ij``."""

    params = ("a11", "a12", "a21", "a22", "b11", "b12", "b21", "b22")

    def __init__(self, a11, a12, a21, a22, b11, b12, b21, b22):
        a = np.array([[a11, a12], [a21, a22]], dtype=float)
        b = np.array([[b11, b12], [b21, b22]], dtype=float)
        if not (np.all(a > 0) and np.all(b > 0) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError(f"{self.family} parameters must all be positive reals")
        a.setflags(write=False)
        b.setflags(write=False)
        self.a = a
        self.b = b
        self.dimension = 2

    def eigenframe(self):
        a, b = self.a, self.b
        # a half turn leaves exactly [[own, cross], [cross, own]] unchanged
        if not (np.array_equal(a, a[::-1, ::-1]) and np.array_equal(b, b[::-1, ::-1])):
            return None

        def decays(ts):  # own +- cross along (1, +-1)/sqrt(2)
            values = self._values(ts)
            own, cross = values[:, 0, 0], values[:, 0, 1]
            return np.stack([own + cross, own - cross], axis=1)

        return np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), decays

    def to_dict(self):
        values = [*self.a.flat, *self.b.flat]
        return {"family": self.family, **dict(zip(self.params, values))}


class Exp2x2Kernel(_Entrywise2x2Kernel):
    """Coordinate-wise exponential 2x2 kernel ``G_ij(t) = a_ij exp(-b_ij t)``."""

    family = "exp2x2"

    def _values(self, ts):
        with np.errstate(over="ignore"):  # t * b = inf near the float limit: exp(-inf) = 0
            return self.a * np.exp(-ts[:, None, None] * self.b)

    def structure(self):
        # exact equalities, as the frame needs: the commuting verdict and route agree
        a, b = self.a, self.b
        symmetric = a[0, 1] == a[1, 0] and b[0, 1] == b[1, 0]
        commuting = np.all(b == b[0, 0]) or (
            b[0, 0] == b[1, 1] and b[0, 1] == b[1, 0] and a[0, 0] == a[1, 1]
        )
        return bool(symmetric), bool(commuting)

    def eigenframe(self):
        frame = super().eigenframe()
        if frame is None and np.all(self.b == self.b[0, 0]):  # G(t) = exp(-bt) a
            return _scaled_frame(self.a, ExpDecay(self.b[0, 0]))
        return frame

    def realization(self):
        # one term per entry (i, j) = divmod(r, 2): P[:, r] = e_i, Q[:, r] = a_ij e_j
        rows, cols = np.divmod(np.arange(4), 2)
        return np.eye(2)[:, rows], self.b.ravel().copy(), np.eye(2)[:, cols] * self.a.ravel()

    def shape_flags(self):
        a, b = self.a, self.b
        rates_ok = min(b[0, 1], b[1, 0]) >= 0.5 * (b[0, 0] + b[1, 1])
        return {
            "nonnegative": rates_ok
            and 0.25 * (a[0, 1] + a[1, 0]) ** 2 <= a[0, 0] * a[1, 1],
            "nonincreasing": rates_ok
            and 0.25 * (a[0, 1] * b[0, 1] + a[1, 0] * b[1, 0]) ** 2
            <= a[0, 0] * b[0, 0] * a[1, 1] * b[1, 1],
            "convex": rates_ok
            and 0.25 * (a[0, 1] * b[0, 1] ** 2 + a[1, 0] * b[1, 0] ** 2) ** 2
            <= a[0, 0] * b[0, 0] ** 2 * a[1, 1] * b[1, 1] ** 2,
        }

    def pd_class(self):
        # nonincreasing forms with a symmetric cross impact imply PD
        if self.shape_flags()["nonincreasing"] and _isclose(self.a[0, 1], self.a[1, 0]):
            return "pd"
        return "undetermined"


class CrossExpKernel(Exp2x2Kernel):
    """Symmetric 2x2 kernel with own-impact rate ``kappa`` and cross-impact
    ``rho * exp(-kappa_tilde * t)`` off the diagonal: the exp2x2 kernel with
    ``a = [[1, rho], [rho, 1]]`` and ``b = [[kappa, kappa_tilde],
    [kappa_tilde, kappa]]``."""

    family = "cross_exp"
    params = ("kappa", "kappa_tilde", "rho")
    to_dict = DecayKernel.to_dict

    def __init__(self, kappa, kappa_tilde, rho):
        for name, v in (("kappa", kappa), ("kappa_tilde", kappa_tilde), ("rho", rho)):
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be a positive real")
        self.kappa = float(kappa)
        self.kappa_tilde = float(kappa_tilde)
        self.rho = float(rho)
        super().__init__(1.0, self.rho, self.rho, 1.0,
                         self.kappa, self.kappa_tilde, self.kappa_tilde, self.kappa)

    def _values(self, ts):
        # two exps per lag where exp2x2 takes four
        with np.errstate(over="ignore"):  # rate * t = inf near the float limit: exp(-inf) = 0
            own = np.exp(-self.kappa * ts)
            cross = self.rho * np.exp(-self.kappa_tilde * ts)
        out = np.empty((ts.size, 2, 2))
        out[:, 0, 0] = own
        out[:, 1, 1] = own
        out[:, 0, 1] = cross
        out[:, 1, 0] = cross
        return out


class Linear2x2Kernel(_Entrywise2x2Kernel):
    """Coordinate-wise linear decay ``G_ij(t) = max(a_ij - b_ij t, 0)``."""

    family = "linear2x2"
    violation_box = (40.0, 48)

    def _values(self, ts):
        with np.errstate(over="ignore"):  # t * b = inf near the float limit: the floor 0
            return np.maximum(self.a - ts[:, None, None] * self.b, 0.0)

    @staticmethod
    def _ratios_ok(ratios):
        """Whether no cross entry outlives a diagonal one: ``a_ij / b_ij``
        (i != j) at most ``a_ii / b_ii``, up to rounding."""
        off, diag = max(ratios[0, 1], ratios[1, 0]), min(ratios[0, 0], ratios[1, 1])
        return np.logical_or(off <= diag, _isclose(off, diag))

    def shape_flags(self):
        a, b = self.a, self.b
        ratios = a / b
        ratios_ok = self._ratios_ok(ratios)
        # The quadratic form t -> x^T G(t) x is piecewise linear with a
        # slope jump of sum b_ij x_i x_j at each kink a_ij / b_ij, so
        # convexity holds iff at every distinct kink location the jump
        # matrix is nonnegative.
        groups = {}
        for i in range(2):
            for j in range(2):
                for r in groups:
                    if _isclose(ratios[i, j], r):
                        groups[r][i, j] += b[i, j]
                        break
                else:
                    m = np.zeros((2, 2))
                    m[i, j] = b[i, j]
                    groups[ratios[i, j]] = m
        return {
            "nonnegative": ratios_ok
            and 0.25 * (a[0, 1] + a[1, 0]) ** 2 <= a[0, 0] * a[1, 1],
            "nonincreasing": ratios_ok
            and 0.25 * (b[0, 1] + b[1, 0]) ** 2 <= b[0, 0] * b[1, 1],
            "convex": all(
                np.linalg.eigvalsh(0.5 * (m + m.T))[0] >= 0.0 for m in groups.values()
            ),
        }

    def pd_class(self):
        # with a symmetric cross impact that runs out first, the family is
        # PD exactly in the proportional case
        a, b = self.a, self.b
        ratios = a / b
        if not (_isclose(a[0, 1], a[1, 0]) and self._ratios_ok(ratios)):
            return "undetermined"
        proportional = (
            _isclose(b[0, 1], b[1, 0])
            and _isclose(ratios[0, 0], ratios[0, 1])
            and _isclose(ratios[0, 0], ratios[1, 1])
            and b[0, 1] * b[1, 0] <= b[0, 0] * b[1, 1]
        )
        return "pd" if proportional else "not_pd"


class ClampedExpKernel(DecayKernel):
    """Fixed nonsymmetric 2x2 kernel, exponential in ``min(t, 1)``.

    Nonnegative, nonincreasing and convex, yet admits grids whose cost
    quadratic form goes negative; the defect sits at very low frequencies,
    i.e. it only shows on long-span grids.
    """

    family = "clamped_exp"
    # the defect needs about 370 unit-spaced trades to show
    violation_box = (400.0, 400)

    def __init__(self):
        self.dimension = 2

    def _values(self, ts):
        tau = np.minimum(ts, 1.0)
        e = np.exp(-tau)
        out = np.empty((ts.size, 2, 2))
        out[:, 0, 0] = e
        out[:, 1, 1] = e
        out[:, 0, 1] = 0.125 * np.exp(-2.0 * tau)
        out[:, 1, 0] = 0.125 * np.exp(-3.0 * tau)
        return out

    def structure(self):
        return False, False

    def pd_class(self):
        # nonincreasing and convex, yet not positive definite
        return "not_pd"


class JordanExpKernel(DecayKernel):
    """``G(t) = exp(-t J)`` for the nonsymmetric Jordan block
    ``J = [[b, 1], [0, b]]``: equals ``exp(-tb) * [[1, -t], [0, 1]]``."""

    family = "jordan_exp"
    params = ("b",)
    violation_box = (50.0, 64)

    def __init__(self, b):
        if not (b > 0 and math.isfinite(b)):
            raise ValueError("b must be a positive real")
        self.b = float(b)
        self.dimension = 2

    def _values(self, ts):
        with np.errstate(over="ignore"):  # b * t = inf near the float limit: exp(-inf) = 0
            e = np.exp(-self.b * ts)
        out = np.zeros((ts.size, 2, 2))
        out[:, 0, 0] = e
        out[:, 1, 1] = e
        out[:, 0, 1] = -ts * e
        return out

    def structure(self):
        # exp(-tJ) matrices are upper-triangular Toeplitz, hence commute
        return False, True

    def pd_class(self):
        return "pd" if self.b >= 0.5 else "not_pd"


class ScalarTimesMatrixKernel(DecayKernel):
    """Separable kernel ``G(t) = g(t) * L``."""

    family = "scalar_times_matrix"
    params = ("g", "L")
    violation_box = (1.0, 8)

    def __init__(self, g: ScalarFunction, L):
        L = _as_square(L, "L")
        L.setflags(write=False)
        self.g = g
        self.L = L
        self.dimension = L.shape[0]

    def _values(self, ts):
        return self.g(ts)[:, None, None] * self.L

    def structure(self):
        # exactly symmetric, as the frame needs: the commuting verdict and route agree
        return np.array_equal(self.L, self.L.T), True

    def eigenframe(self):
        return _scaled_frame(self.L, self.g)

    def realization(self):
        term = self.g.exp_term()
        if term is None:
            return None
        c, r = term
        k = self.dimension
        return c * self.L, np.full(k, r), np.eye(k)

    def pd_class(self):
        """The one PD rule for ``g(t) L``: (strictly) PD when ``g(|t|)`` is and
        L is symmetric PSD (PD); else, with ``g(0) > 0``, not PD: a negative
        direction of sym(L) shows on one trade, a skew part A on three close
        trades ``(u, z, -u - z)``, of form about ``2 g(0) z^T A u``."""
        L, base = self.L, self.g.pd_class()
        tol = SYM_TOL * (1.0 + _maxabs(L))
        low = _min_eigenpair(0.5 * (L + L.T))[0]
        if not (_is_symmetric(L) and low >= -tol):
            return "not_pd" if self.g(0.0) > 0 else None
        if base is None:
            return None
        return "strict_pd" if base == "strict_pd" and low > tol else "pd"


class PermanentKernel(ScalarTimesMatrixKernel):
    """Constant kernel ``G(t) = G0``, purely permanent impact: the
    scalar-times-matrix kernel of ``Constant(1)``, PD iff G0 is symmetric PSD."""

    family = "permanent"
    params = ("G0",)

    def __init__(self, G0):
        super().__init__(Constant(1.0), _as_square(G0, "G0"))
        self.G0 = self.L


class LeftMultiplyKernel(DecayKernel):
    """``G(t) = L @ G_inner(t)``."""

    family = "left_multiply"
    params = ("L", "inner")

    def __init__(self, L, inner: DecayKernel):
        L = _as_square(L, "L", inner.dimension)
        L.setflags(write=False)
        self.L = L
        self.inner = inner
        self.dimension = inner.dimension

    def _values(self, ts):
        return self.L @ self.inner._values(ts)

    def realization(self):
        inner = self.inner.realization()
        if inner is None:
            return None
        P, rates, Q = inner
        return self.L @ P, rates, Q


class CongruenceKernel(DecayKernel):
    """``G(t) = L^T @ G_inner(t) @ L`` for invertible ``L``."""

    family = "congruence"
    params = ("L", "inner")

    def __init__(self, L, inner: DecayKernel):
        L = _as_square(L, "L", inner.dimension)
        cond = np.linalg.cond(L)
        if not np.isfinite(cond) or cond > MAX_CONDITION:
            raise ValueError(f"L must be invertible; condition number {cond:.3e}")
        L.setflags(write=False)
        self.L = L
        self.condition_number = float(cond)
        self.inner = inner
        self.dimension = inner.dimension

    def _values(self, ts):
        return self.L.T @ self.inner._values(ts) @ self.L

    def realization(self):
        # L^T P D Q^T L = (L^T P) D (L^T Q)^T
        inner = self.inner.realization()
        if inner is None:
            return None
        P, rates, Q = inner
        return self.L.T @ P, rates, self.L.T @ Q


class PlusTemporaryKernel(DecayKernel):
    """Inner kernel plus a temporary-impact jump ``H0`` at lag 0 only."""

    family = "plus_temporary"
    params = ("H0", "inner")

    def __init__(self, H0, inner: DecayKernel):
        H0 = _as_square(H0, "H0", inner.dimension)
        low = _min_eigenpair(0.5 * (H0 + H0.T))[0]
        if low < -SYM_TOL * (1.0 + _maxabs(H0)):
            raise ValueError(
                f"H0 must be a nonnegative matrix; symmetric part has eigenvalue {low:.3e}"
            )
        H0.setflags(write=False)
        self.H0 = H0
        self.inner = inner
        self.dimension = inner.dimension

    def _values(self, ts):
        out = self.inner._values(ts)
        zero = ts == 0
        if np.any(zero):
            out[zero] += self.H0
        return out

    def realization(self):
        # the jump sits at lag 0 only, in tilde(0)
        return self.inner.realization()


_KERNEL_FAMILIES = {
    cls.family: cls
    for cls in (
        PermanentKernel, MatrixExpKernel, MatrixFunctionKernel, DiagCongruenceKernel,
        Exp2x2Kernel, CrossExpKernel, Linear2x2Kernel, ClampedExpKernel, JordanExpKernel,
        ScalarTimesMatrixKernel, LeftMultiplyKernel, CongruenceKernel, PlusTemporaryKernel,
    )
}


def _describe(value):
    """A parameter's value in a config description."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_describe(v) for v in value]
    return value.to_dict() if isinstance(value, (DecayKernel, ScalarFunction)) else value


def _read(key: str, value):
    """Parameter ``key`` from its value in a config description."""
    if key == "inner":
        return kernel_from_dict(value)
    if key == "decays":
        return [scalar_function_from_dict(g) for g in value]
    return scalar_function_from_dict(value) if key in ("scalar_fn", "g") else value


def kernel_from_dict(d: dict) -> DecayKernel:
    """Rebuild a kernel from :meth:`DecayKernel.to_dict`'s description: the
    class its ``family`` names, called with each of its ``params`` read back,
    an inner kernel or scalar profile from its own description.  An unknown
    family raises ValueError, a missing parameter KeyError."""
    try:
        cls = _KERNEL_FAMILIES[d["family"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"unknown kernel description: {d!r}") from exc
    return cls(*(_read(key, d[key]) for key in cls.params))


# ---------------------------------------------------------------------------
# structure checks: symmetry and the commuting property
# ---------------------------------------------------------------------------


def _structure_sampled(values: np.ndarray):
    norms = np.max(np.abs(values), axis=(1, 2))
    asym = np.max(np.abs(values - np.transpose(values, (0, 2, 1))), axis=(1, 2))
    sym = bool(np.all(asym <= SYM_TOL * (1.0 + norms)))

    commuting = True
    m = values.shape[0]
    for start in range(0, m, 64):  # chunked so the pair tensor stays small
        block = values[start : start + 64]
        prod = np.einsum("aij,bjk->abik", block, values)
        prod_rev = np.einsum("bij,ajk->abik", values, block)
        gap = np.max(np.abs(prod - prod_rev), axis=(2, 3))
        tol = SYM_TOL * (1.0 + np.outer(norms[start : start + 64], norms))
        if np.any(gap > tol):
            commuting = False
            break
    return sym, commuting


def check_structure(kernel: DecayKernel, sample_times) -> tuple:
    """Decide whether the kernel is symmetric and commuting.

    Families with a closed-form answer return it directly; a sampled check
    backs it up (an analytic "yes" contradicted by a sampled violation
    raises, since that indicates a numerical breakdown).  Other kernels are
    decided purely by sampling.  The sample is at most
    ``STRUCTURE_SAMPLES`` (48) evenly spaced entries of ``sample_times``,
    first and last included: the commutator check compares every pair of
    sampled values, so its cost is quadratic in the sample size.
    """
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.size == 0:
        raise ValueError("sample_times must be nonempty")
    if np.min(sample_times) < 0:
        raise ValueError("sample_times must be nonnegative")
    if sample_times.size > STRUCTURE_SAMPLES:
        picks = np.linspace(0, sample_times.size - 1, STRUCTURE_SAMPLES).round().astype(int)
        sample_times = sample_times[picks]
    values = kernel.at_many(sample_times)
    sym_sampled, comm_sampled = _structure_sampled(values)
    analytic = kernel.structure()
    if analytic is None:
        return sym_sampled, comm_sampled
    sym, comm = analytic
    if (sym and not sym_sampled) or (comm and not comm_sampled):
        raise RuntimeError(
            f"analytic structure verdict ({sym}, {comm}) contradicted by sampling "
            f"({sym_sampled}, {comm_sampled}) for family {kernel.family!r}"
        )
    return sym, comm


# ---------------------------------------------------------------------------
# shape properties: nonnegative / nonincreasing / convex quadratic forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeWitness:
    """Concrete violation: lag(s) and a direction whose quadratic form
    breaks the property (for nonconstancy: a direction whose form is flat)."""

    times: tuple
    direction: np.ndarray


@dataclass(frozen=True)
class Verdict:
    value: Optional[bool]  # True / False / None (undetermined)
    method: str  # "analytic" or "sampled"
    witness: Optional[ShapeWitness] = None


@dataclass(frozen=True)
class PropertyReport:
    symmetric: bool
    commuting: bool
    nonnegative: Verdict
    nonincreasing: Verdict
    convex: Verdict
    nonconstant_forms: Verdict


# the shape properties, indexed by the order of the lag differences whose
# symmetric parts they keep positive semidefinite
_SHAPE_PROPERTIES = ("nonnegative", "nonincreasing", "convex")


def _shape_violation(ts, values, order: int, floor: float) -> Optional[ShapeWitness]:
    """The worst violation on a lag grid of the shape property of difference
    ``order`` (see ``_SHAPE_PROPERTIES``), or None.

    Each run of ``order + 1`` consecutive lags gives one matrix: the symmetric
    part of ``G`` (nonnegative), of ``G(t_i) - G(t_{i+1})`` (nonincreasing) or
    of the second difference (convex).  A run violates when its smallest
    eigenvalue is below ``-floor * (1 + max|G|)`` over the run's lags; the
    witness is the eigenvector of the run with the least slack.
    """
    sym = 0.5 * (values + np.transpose(values, (0, 2, 1)))
    mats = np.diff(sym, n=order, axis=0)
    if order == 1:
        mats = -mats
    norms = np.max(np.abs(values), axis=(1, 2))
    scale = np.max([norms[j : j + len(mats)] for j in range(order + 1)], axis=0)
    slack = np.linalg.eigvalsh(mats)[:, 0] + floor * (1.0 + scale)
    i = int(np.argmin(slack))
    if slack[i] >= 0:
        return None
    return ShapeWitness(tuple(float(t) for t in ts[i : i + order + 1]), _min_eigenpair(mats[i])[1])


def _search_shape_witness(kernel, order: int, t_max: float) -> Optional[ShapeWitness]:
    """Locate a concrete violation of the shape property of difference
    ``order`` (see ``_SHAPE_PROPERTIES``), known to fail.

    Scans increasingly long, dense lag grids; directions come from the
    eigenvectors of the relevant (difference) matrices, so any violation
    visible in double precision is found.  Returns None if the violation
    lies beyond floating-point range.
    """
    for span in (t_max, 4.0 * t_max, 32.0 * t_max, 256.0 * t_max):
        if not math.isfinite(span):  # this span and the longer ones overflow
            break
        ts = np.linspace(0.0, span, 4097)
        witness = _shape_violation(ts, kernel.at_many(ts), order, SHAPE_WITNESS_FLOOR)
        if witness is not None:
            return witness
    return None


def analytic_shape_flags(kernel: DecayKernel) -> Optional[dict]:
    """Closed-form nonnegative/nonincreasing/convex answers, when available
    (see :meth:`DecayKernel.shape_flags`); None for kernels that have to be
    sampled."""
    return kernel.shape_flags()


def check_shape_properties(
    kernel: DecayKernel,
    t_max: float,
    n_samples: int = 400,
    method: str = "auto",
) -> PropertyReport:
    """Check nonnegativity, monotonicity, convexity and nonconstancy.

    Families with closed-form flags (:meth:`DecayKernel.shape_flags`) get
    exact analytic verdicts (with a numerically located witness when a
    property fails); everything else is decided by one smallest-eigenvalue
    scan per property on an equidistant lag grid over ``[0, t_max]``.
    Sampled verdicts are falsifiable only: ``True`` means "no violation
    found".  ``method="sampled"`` forces the sampled path for any family.

    Nonconstancy is always sampled: a form ``x^T G(t) x`` is flat on the lag
    grid when ``x`` is in the kernel of every ``S_j = sym(G(t_j) - G(t_0))``,
    and the smallest singular pair of the stacked ``S_j`` finds the most
    nearly flat direction; a singular value at most
    ``SHAPE_TOL * (1 + max|G|)`` makes the verdict False, with that
    direction as the witness.  This is exact whenever every ``S_j`` is
    semidefinite, as for a nonincreasing kernel, where a flat form forces
    ``S_j x = 0``.
    """
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max!r}")
    if n_samples < 3:
        raise ValueError("need at least 3 lag samples")
    if method not in ("auto", "sampled"):
        raise ValueError("method must be 'auto' or 'sampled'")
    ts = np.linspace(0.0, t_max, n_samples)
    symmetric, commuting = check_structure(kernel, ts)
    values = kernel.at_many(ts)
    flags = kernel.shape_flags() if method == "auto" else None

    verdicts = {}
    for order, prop in enumerate(_SHAPE_PROPERTIES):
        if flags is None:
            witness = _shape_violation(ts, values, order, SHAPE_TOL)
            verdicts[prop] = Verdict(witness is None, "sampled", witness)
        elif flags[prop]:
            verdicts[prop] = Verdict(True, "analytic")
        else:
            verdicts[prop] = Verdict(False, "analytic", _search_shape_witness(kernel, order, t_max))

    # an SVD, not an eigensolver of sum S_j^2: squaring would bury the
    # tolerance in roundoff
    sym = values + np.transpose(values, (0, 2, 1))
    stacked = (0.5 * (sym[1:] - sym[0])).reshape(-1, kernel.dimension)
    _, sigma, vt = np.linalg.svd(stacked, full_matrices=False)
    flat = sigma[-1] <= SHAPE_TOL * (1.0 + _maxabs(values))
    nonconst = Verdict(not flat, "sampled", ShapeWitness(tuple(ts), vt[-1]) if flat else None)

    return PropertyReport(
        symmetric=symmetric,
        commuting=commuting,
        nonconstant_forms=nonconst,
        **verdicts,
    )
