"""Positive definiteness of decay kernels via Gram-matrix spectral tests.

A kernel admits no profitable round trips (and guarantees optimal
liquidation strategies) exactly when every Gram matrix built from its
two-sided extension on a trading grid is positive semidefinite.  This
module assembles those Gram matrices, checks them spectrally, classifies
whole kernel families analytically where closed-form criteria exist, and
searches for explicit violations otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .grids import TimeGrid
from .kernels import (
    SYM_TOL,
    CongruenceKernel,
    DecayKernel,
    PlusTemporaryKernel,
    _maxabs,
    _min_eigenpair,
)

__all__ = [
    "GramMatrix",
    "GridPDResult",
    "GramWitness",
    "PosDefReport",
    "StateSpaceGram",
    "assemble_gram",
    "check_grid_pd",
    "classify_positive_definite",
    "gram_for",
    "search_violation",
    "state_space_gram",
]

PSD_REL_TOL = 1e-9
WITNESS_REL_TOL = 1e-12
# largest span and size of the spectral evidence's random grids
EVIDENCE_SPAN = 50.0
EVIDENCE_N_MAX = 12
# assemble_gram evaluates the kernel on runs of block rows with at most this
# many lags each (at least one row), so that the kernel values it holds next
# to the Gram stay bounded; a grid of up to 255 times takes a single run
GRAM_CHUNK_LAGS = 1 << 15
# StateSpaceGram.shifted_factor pivots on chunks of max(1, STATE_SPACE_CHUNK_ROWS // K)
# grid steps: one dense block of at most this many rows per LAPACK call
STATE_SPACE_CHUNK_ROWS = 32
# largest gap at a lag between a realization and the values it realizes
# (StateSpaceGram.guard), relative to 1 + their max there; also the off-diagonal
# leakage of solver.simultaneous_diagonalize's rotated samples
DIAGONAL_LEAK_TOL = 1e-9


@dataclass(frozen=True)
class GramMatrix:
    """The NK x NK block matrix of two-sided kernel values at pairwise lags,
    for spectral tests and for kernels without a realization (:func:`gram_for`).

    Block (k, l) equals ``tilde(t_k - t_l)``; the storage is exactly
    symmetric because the extension transposes mirrored lags bit-for-bit.
    N is the grid's size and K is ``blocks``' side over N.  Between calls
    the lower triangle and the diagonal hold the Gram, which every product
    and impact reads; :meth:`shifted_factor` writes its factor over the
    upper triangle only.
    """

    grid: TimeGrid
    blocks: np.ndarray  # (N*K, N*K)

    def __post_init__(self):
        shape = np.shape(self.blocks)
        if len(shape) != 2 or shape[0] != shape[1] or not shape[0] or shape[0] % self.grid.n:
            raise ValueError(f"a Gram on {self.grid.n} times needs (NK, NK) blocks, not {shape}")

    @property
    def size(self) -> int:
        return self.grid.n

    @property
    def dimension(self) -> int:
        return self.blocks.shape[0] // self.grid.n

    @property
    def bound(self) -> float:
        """max|Gram|; it reads both triangles, so it is taken before a factor."""
        return _maxabs(self.blocks)

    def product(self, X: np.ndarray) -> np.ndarray:
        """``Gram X`` for X of shape (NK, m): one ``dsymm`` on the lower
        triangle (``blocks.T`` is the same memory in Fortran order, its upper
        triangle the lower one)."""
        return scipy.linalg.blas.dsymm(1.0, self.blocks.T, X, lower=0)

    def impact(self, trades: np.ndarray) -> np.ndarray:
        """Accumulated impact ``sum_l tilde(t_k - t_l) xi_l`` at every trade
        time, shape (N, K), for trades of shape (N, K): one ``dsymv`` on the
        lower triangle."""
        v = np.asarray(trades, dtype=float).reshape(-1)
        impact = scipy.linalg.blas.dsymv(1.0, self.blocks.T, v, lower=0)
        return impact.reshape(self.size, self.dimension)

    def quadratic_form(self, trades: np.ndarray) -> float:
        """``xi . Gram . xi`` for trades of shape (N, K)."""
        return float(np.vdot(trades, self.impact(trades)))

    def shifted_factor(self, shift: float) -> Optional["GramFactor"]:
        """Cholesky factor of ``Gram + shift * I``, written in place, or None
        when that matrix is not positive definite (some eigenvalue is at most
        ``-shift``, up to roundoff).

        LAPACK factors ``blocks.T``, the same memory in Fortran order, so the
        factor reads the upper triangle and overwrites it and the diagonal.
        The factor's diagonal, its pivots, is then set aside and the Gram's
        diagonal written back, whether the factor exists or not, so the Gram
        is whole again when this returns."""
        blocks = self.blocks
        diagonal = blocks.diagonal().copy()
        blocks.flat[:: blocks.shape[0] + 1] += shift
        factor, info = scipy.linalg.lapack.dpotrf(blocks.T, lower=1, overwrite_a=1, clean=0)
        pivots = factor.diagonal().copy()
        blocks.flat[:: blocks.shape[0] + 1] = diagonal
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrf")
        return None if info > 0 else GramFactor(factor, pivots)


class GramFactor:
    """The Cholesky factor of :meth:`GramMatrix.shifted_factor`, held in the
    Gram's upper triangle, with its diagonal kept aside as ``pivots``."""

    def __init__(self, factor: np.ndarray, pivots: np.ndarray):
        self.factor = factor
        self.pivots = pivots

    def solve(self, B: np.ndarray) -> np.ndarray:
        """``(Gram + shift I)^-1 B`` for B of shape (NK, m), with the pivots on
        the diagonal until it returns or raises."""
        # factor.T is the Gram in C order, so its flat view writes through
        flat, step = self.factor.T.flat, self.factor.shape[0] + 1
        diagonal = self.factor.diagonal().copy()
        flat[::step] = self.pivots
        try:
            return scipy.linalg.cho_solve((self.factor, True), B, check_finite=False)
        finally:
            flat[::step] = diagonal


@dataclass(frozen=True)
class StateSpaceGram:
    """The Gram of a kernel with a realization ``G(t) = P diag(exp(-t rates)) Q^T``
    (:meth:`DecayKernel.realization`) on a grid, held as O(N R) generators.

    Block (k, l), ``k > l``, is ``P Phi(k, l) Q^T`` with the diagonal
    propagator ``Phi(k, l) = diag(exp(-(t_k - t_l) rates))``, the product of
    the gap decays ``decays[j] = exp(-(t_{j+1} - t_j) rates)``, ``l <= j < k``;
    block (l, k) is its transpose and block (k, k) is ``diagonal = tilde(0)``,
    temporary jump included.  So the Gram is quasiseparable of order R: a
    product is two scans over the grid and the block Cholesky of
    :meth:`shifted_factor` takes one R x R update per chunk of steps.  Rates
    must be finite and ``>= 0`` (else ``ValueError``), so every propagator
    entry lies in [0, 1] and nothing overflows.
    """

    grid: TimeGrid
    diagonal: np.ndarray  # (K, K)
    P: np.ndarray  # (K, R)
    Q: np.ndarray  # (K, R)
    rates: np.ndarray  # (R,)

    def __post_init__(self):
        if not (np.all(self.rates >= 0) and np.all(np.isfinite(self.rates))):
            raise ValueError("a realization needs finite rates >= 0")

    @functools.cached_property
    def decays(self) -> np.ndarray:
        """The gap decays ``exp(-(t_{j+1} - t_j) rates)``, (N - 1, R)."""
        return self.propagators(np.diff(self.grid.times))

    @property
    def size(self) -> int:
        return self.grid.n

    @property
    def dimension(self) -> int:
        return self.diagonal.shape[0]

    @property
    def bound(self) -> float:
        """``max(max|tilde(0)|, max_ij sum_r |P_ir| |Q_jr|)``, at least max|Gram|."""
        return max(_maxabs(self.diagonal), _maxabs(np.abs(self.P) @ np.abs(self.Q).T))

    def propagators(self, lags: np.ndarray) -> np.ndarray:
        """``exp(-lag rates)`` for lags >= 0, shape (*lags.shape, R), in [0, 1]."""
        with np.errstate(over="ignore"):  # lag * rate = inf near the float limit: exp(-inf) = 0
            return np.exp(-lags[..., None] * self.rates)

    def guard(self, values: np.ndarray) -> "StateSpaceGram":
        """This Gram, once its realization ``P diag(exp(-lag rates)) Q^T``
        matches ``values`` (L, K, K), the realized kernel at the L lags of
        :func:`guard_lags`, within ``DIAGONAL_LEAK_TOL * (1 + max|values|)``
        at every lag; a miss raises ``ArithmeticError``."""
        lags = guard_lags(self.grid)
        realized = np.matmul(self.P * self.propagators(lags)[:, None, :], self.Q.T)
        leak = np.max(np.abs(realized - values), axis=(1, 2), initial=0.0)
        tols = DIAGONAL_LEAK_TOL * (1.0 + np.max(np.abs(values), axis=(1, 2), initial=0.0))
        if np.any(leak > tols):
            i = int(np.argmax(leak - tols))
            raise ArithmeticError(
                f"the realization misses the kernel by {leak[i]:.3e} at lag {lags[i]!r}"
            )
        return self

    def product(self, X: np.ndarray) -> np.ndarray:
        """``Gram X`` for X of shape (NK, m), block k its rows ``x_k``:
        ``tilde(0) x_k + P f_k + Q h_k`` with ``f_k = sum_{l<k} Phi(k, l) Q^T x_l``
        and ``h_k = sum_{l>k} Phi(l, k) P^T x_l``, one scan each way.  The work
        is done on rows, ``x_k^T`` stacked as an (N m, K) matrix, so every
        product with P, Q or ``tilde(0)`` is one GEMM."""
        n, k, m = self.size, self.dimension, X.shape[1]
        r = self.P.shape[1]
        rows = np.ascontiguousarray(X.reshape(n, k, m).transpose(0, 2, 1)).reshape(n * m, k)
        d = self.decays[:, None, :]
        # running sums with the current term: ahead[k] = f_k + Q^T x_k
        ahead = _decay_scan(d, (rows @ self.Q).reshape(n, m, r))
        behind = _decay_scan(d[::-1], (rows @ self.P).reshape(n, m, r)[::-1])[::-1]
        out = rows @ self.diagonal.T
        out[m:] += (d * ahead[:-1]).reshape((n - 1) * m, r) @ self.P.T
        out[: (n - 1) * m] += (d * behind[1:]).reshape((n - 1) * m, r) @ self.Q.T
        return out.reshape(n, m, k).transpose(0, 2, 1).reshape(n * k, m)

    def impact(self, trades: np.ndarray) -> np.ndarray:
        """Accumulated impact ``sum_l tilde(t_k - t_l) xi_l``, shape (N, K),
        as :meth:`GramMatrix.impact` computes it, in O(N R K)."""
        trades = np.asarray(trades, dtype=float)
        return self.product(trades.reshape(-1, 1)).reshape(trades.shape)

    def shifted_factor(self, shift: float) -> Optional["StateSpaceFactor"]:
        """Block Cholesky ``L L^T`` of ``Gram + shift * I``, or None when a
        pivot fails (the leading blocks are not positive definite).

        The pivots are chunks C of ``s = max(1, STATE_SPACE_CHUNK_ROWS // K)``
        consecutive steps ``a <= k < b``; the last chunk holds the rest.
        With the generators ``Pt_C = [P Phi(k, a)]_k`` (sK x R) and
        ``Qt_C = [Phi(b, l) Q^T]_l`` (R x sK), the Gram below chunk C is
        ``P Phi(k, b) Qt_C``, ``k >= b``, and so is ``L_kC = P Phi(k, b) g_C``.
        With ``W_0 = 0`` and ``W_{C+1} = Phi(b, a) W_C Phi(b, a) + g_C g_C^T``,
        ``L_CC = chol(Gram_CC + shift I - Pt_C W_C Pt_C^T)`` and
        ``g_C^T = L_CC^-1 (Qt_C^T - Pt_C W_C Phi(b, a))``.  Every propagator
        is ``exp(-lag rates)`` at a lag >= 0; at s = 1 this is the
        step-by-step block Cholesky.  The generators and the diagonal blocks
        of all chunks are formed at once, so only the R x R updates, one
        ``dpotrf`` and one ``dtrtri`` per chunk are sequential.
        """
        n, k = self.size, self.dimension
        P, Q = self.P, self.Q
        steps = max(1, STATE_SPACE_CHUNK_ROWS // k)
        count = -(-n // steps)
        width = steps * k
        # the times padded with t_{N-1} to count * steps + 1 entries; a padded
        # step is cut out of its chunk below, a decoupled identity pivot
        times = np.full(count * steps + 1, self.grid.times[-1])
        times[:n] = self.grid.times
        local = times[:-1].reshape(count, steps)  # chunk c's times t_a .. t_{b-1}
        starts, ends = local[:, 0], times[steps::steps]
        span = self.propagators(ends - starts)  # Phi(b, a), (count, R)
        into = self.propagators(local - starts[:, None])  # Phi(k, a), (count, steps, R)
        out_of = self.propagators(ends[:, None] - local)  # Phi(b, l)
        Pt = (into[:, :, None, :] * P).reshape(count, width, -1)
        QtT = (out_of[:, :, None, :] * Q).reshape(count, width, -1)
        # block (i, j) of chunk c: P Phi(i, j) Q^T below the diagonal and
        # tilde(0) + shift I on it; dpotrf reads the lower triangle only, so
        # the blocks above the diagonal are left as they come (lag 0)
        lags = np.maximum(local[:, :, None] - local[:, None, :], 0.0)
        pairs = (P[:, None, :] * Q).reshape(k * k, -1)  # row (a, b): P[a] * Q[b]
        values = self.propagators(lags).reshape(-1, P.shape[1]) @ pairs.T
        blocks = values.reshape(count, steps, steps, k, k).transpose(0, 1, 3, 2, 4)
        blocks = blocks.reshape(count, width, width)  # a copy: the transpose is not contiguous
        diagonal = np.arange(steps)
        blocks.reshape(count, steps, k, steps, k)[:, diagonal, :, diagonal, :] = (
            self.diagonal + shift * np.eye(k)
        )
        real = (n - (count - 1) * steps) * k  # rows of the last chunk that are grid steps
        if real < width:
            blocks[-1, real:] = blocks[-1, :, real:] = 0.0
            blocks[-1, real:, real:] = np.eye(width - real)
            Pt[-1, real:] = QtT[-1, real:] = 0.0

        inverses = np.empty((count, width, width))  # L_CC^-1
        gT = np.empty(QtT.shape)
        W = np.zeros((P.shape[1],) * 2)
        spread = span[:, :, None] * span[:, None, :]
        dpotrf, dtrtri = scipy.linalg.lapack.dpotrf, scipy.linalg.lapack.dtrtri
        for c in range(count):
            if c:
                W *= spread[c - 1]
                W += gT[c - 1].T @ gT[c - 1]
            PW = Pt[c] @ W
            pivot, info = dpotrf(blocks[c] - PW @ Pt[c].T, lower=1, clean=1, overwrite_a=1)
            if info > 0:
                return None
            inverse, info2 = dtrtri(pivot, lower=1, overwrite_c=1)
            if info or info2:  # an illegal argument, or a zero on a positive diagonal
                raise ValueError(f"LAPACK failed on pivot chunk {c}: info {info}, {info2}")
            inverses[c] = inverse
            np.matmul(inverse, QtT[c] - PW * span[c], out=gT[c])
        return StateSpaceFactor(Pt, span, inverses, gT)


def _decay_scan(decays: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The running sums ``a_0 = terms_0``, ``a_k = terms_k + decays_{k-1} a_{k-1}``,
    written over ``terms`` (N, ...) and returned; ``decays`` (N - 1, ...) lie in
    [0, 1].  A doubling scan: after the pass of offset ``o``, ``a_k`` sums the
    ``2o`` terms up to k, each weighted by the decays between, and ``span``
    holds the products of ``2o`` consecutive decays, so ceil(log2 N) vectorized
    passes replace N sequential steps."""
    span = decays.copy()  # span[k - 1]: the decays from t_{k-o} to t_k
    offset = 1
    while offset < terms.shape[0]:
        terms[offset:] += span[offset - 1:] * terms[:-offset]
        span[offset:] *= span[:-offset]
        offset *= 2
    return terms


class StateSpaceFactor:
    """The block Cholesky of :meth:`StateSpaceGram.shifted_factor`, as the
    chunk generators ``Pt_C``, the pivot inverses ``L_CC^-1`` and the
    generators ``g_C^T``, each (chunks, sK, ...), zero or identity on the
    padded steps of the last chunk.

    :meth:`solve` runs the forward and backward substitutions as two
    recurrences on R-vectors, one step per chunk,
    ``s_{C+1} = T_C s_C + M_C b_C`` and ``r_{C-1} = T_C^T r_C + E_C z_C``
    with ``E_C = Pt_C^T L_CC^-T``, whose coefficients are formed here for
    all chunks at once; only the recurrences are sequential.
    """

    def __init__(self, Pt: np.ndarray, span: np.ndarray, inverses: np.ndarray, gT: np.ndarray):
        # M_C = g_C L_CC^-1 and T_C = Phi(b, a) - M_C Pt_C: the forward update
        # of s is s_{C+1} = T_C s_C + M_C b_C, the backward one of r uses T_C^T
        M = np.matmul(gT.transpose(0, 2, 1), inverses)
        T = np.eye(span.shape[1]) * span[:, None, :] - np.matmul(M, Pt)
        self.Pt = Pt
        self.inverses = inverses
        self.gT = gT
        # lists of views: indexing a list costs less than indexing an array,
        # in a loop of small steps
        self.forward = [*T[:-1]]
        self.feed = M[:-1]
        self.backward = [*T[1:].transpose(0, 2, 1)]
        self.back_feed = np.matmul(Pt[1:].transpose(0, 2, 1), inverses[1:].transpose(0, 2, 1))

    def solve(self, B: np.ndarray) -> np.ndarray:
        """``(Gram + shift I)^-1 B`` for B of shape (NK, m)."""
        nk, m = B.shape
        count, width = self.inverses.shape[:2]
        rhs = np.zeros((count, width, m))  # B in chunks, zero on the padded steps
        rhs.reshape(-1, m)[:nk] = B
        forward, backward = self.forward, self.backward
        # forward L z = b: z_C = L_CC^-1 (b_C - Pt_C s_C),
        # s_{C+1} = Phi(b, a) s_C + g_C z_C
        s = np.empty((count, self.Pt.shape[2], m))
        s[0] = 0.0
        s[1:] = np.matmul(self.feed, rhs[:-1])
        rows = [*s]
        for i in range(1, count):
            rows[i] += forward[i - 1] @ rows[i - 1]
        z = np.matmul(self.inverses, rhs - np.matmul(self.Pt, s))
        # backward L^T y = z: y_C = L_CC^-T (z_C - g_C^T r_C),
        # r_{C-1} = Pt_C^T y_C + Phi(b, a) r_C, written over s
        s[-1] = 0.0
        s[:-1] = np.matmul(self.back_feed, z[1:])
        for i in range(count - 2, -1, -1):
            rows[i] += backward[i] @ rows[i + 1]
        y = np.matmul(self.inverses.transpose(0, 2, 1), z - np.matmul(self.gT, s))
        return y.reshape(-1, m)[:nk]


def guard_lags(grid: TimeGrid) -> np.ndarray:
    """Every gap ``t_{k+1} - t_k`` and every lag ``t_k - t_0`` of the grid (on
    an equidistant grid the gaps are one lag, which alone passes a
    realization exact only there)."""
    times = grid.times
    return np.concatenate([np.diff(times), times[2:] - times[0]])


def state_space_gram(kernel: DecayKernel, grid: TimeGrid) -> StateSpaceGram:
    """The kernel's Gram on the grid as the :class:`StateSpaceGram` of its
    realization, guarded (:meth:`StateSpaceGram.guard`) against
    ``kernel.at_many`` at :func:`guard_lags`, else ``ArithmeticError``.  A
    kernel without a realization raises ``ValueError``."""
    realization = kernel.realization()
    if realization is None:
        raise ValueError(f"the {kernel.family} kernel has no state-space realization")
    P, rates, Q = (np.asarray(a, dtype=float) for a in realization)
    gram = StateSpaceGram(grid, kernel.tilde(0.0), P, Q, rates)
    return gram.guard(kernel.at_many(guard_lags(grid)))


def gram_for(kernel: DecayKernel, grid: TimeGrid) -> GramMatrix | StateSpaceGram:
    """The kernel's Gram on the grid for a cost, impact or solve: the guarded
    :func:`state_space_gram` where it exists, else :func:`assemble_gram`."""
    try:
        return state_space_gram(kernel, grid)
    except (ValueError, ArithmeticError):
        return assemble_gram(kernel, grid)


@dataclass(frozen=True)
class GridPDResult:
    psd: bool
    strict: bool
    min_eig: float
    eigenvalues: np.ndarray  # the Gram's spectrum, ascending


@dataclass(frozen=True)
class GramWitness:
    """A grid and unit trade vector whose quadratic form is negative."""

    grid: TimeGrid
    trades: np.ndarray  # (N, K), flattened 2-norm 1
    value: float  # trades . Gram . trades


@dataclass(frozen=True)
class PosDefReport:
    verdict: str  # "strict_pd" | "pd" | "not_pd" | "undetermined"
    min_eig: Optional[float]  # worst Gram eigenvalue seen, when sampled
    witness: Optional[GramWitness]
    method: str  # "analytic_theorem" | "analytic_family" | "spectral" | "search"


def _gram_lags(grid: TimeGrid, start: int = 0, stop: Optional[int] = None) -> np.ndarray:
    """The lags ``t_i - t_j``, ``j <= i``, of the lower block triangle, row by
    row, for the block rows ``start <= i < stop`` (default: all)."""
    t = grid.times
    stop = grid.n if stop is None else stop
    return (t[start:stop, None] - t[:stop])[np.tri(stop - start, stop, start, dtype=bool)]


def _fill_rows(gram: np.ndarray, values: np.ndarray, start: int, stop: int) -> None:
    """Write block rows ``start <= i < stop`` of ``gram`` (n, k, n, k): block
    (i, j), ``j <= i``, is ``values`` (m, k, k) at the :func:`_gram_lags` lag
    ``t_i - t_j``, and block (j, i) its transpose."""
    first = 0
    for i in range(start, stop):  # values[first:first + i + 1] are the lags t_i - t_j, j <= i
        row = values[first : first + i + 1]
        gram[i, :, : i + 1] = row.transpose(1, 0, 2)
        gram[: i + 1, :, i] = row.transpose(0, 2, 1)
        first += i + 1


def _fill_gram(values: np.ndarray, n: int) -> np.ndarray:
    """The (nk) x (nk) matrix of :func:`_fill_rows` from the ``values`` at
    all of :func:`_gram_lags`."""
    k = values.shape[1]
    gram = np.empty((n, k, n, k))
    _fill_rows(gram, values, 0, n)
    return gram.reshape(n * k, n * k)


def assemble_gram(kernel: DecayKernel, grid: TimeGrid) -> GramMatrix:
    """Assemble the cost quadratic form's Gram matrix for a trading grid.

    The kernel is evaluated at the lower block triangle's lags only; the
    transposed blocks are bit for bit ``tilde(t_l - t_k)``, so the result is
    that of all N^2 lags at half the kernel evaluations.  The lags are taken
    in consecutive runs of block rows of at most ``GRAM_CHUNK_LAGS`` lags,
    each filled before the next is evaluated; the kernel is elementwise in
    its lags, so the Gram is the same bit for bit as from one evaluation.
    """
    n, k = grid.n, kernel.dimension
    gram = np.empty((n, k, n, k))
    start = 0
    while start < n:
        # block rows start..stop-1 hold stop(stop+1)/2 - start(start+1)/2 lags
        budget = GRAM_CHUNK_LAGS + start * (start + 1) // 2
        stop = min(n, max(start + 1, (math.isqrt(8 * budget + 1) - 1) // 2))
        _fill_rows(gram, kernel.tilde_many(_gram_lags(grid, start, stop)), start, stop)
        start = stop
    return GramMatrix(grid, gram.reshape(n * k, n * k))


def check_grid_pd(gram: GramMatrix) -> GridPDResult:
    """Spectral PSD test with a relative tolerance on the smallest eigenvalue."""
    try:
        eigs = np.linalg.eigvalsh(gram.blocks)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigensolver failed on a {gram.blocks.shape} Gram") from exc
    min_eig = float(eigs[0])
    tol = PSD_REL_TOL * (1.0 + gram.bound)
    return GridPDResult(
        psd=min_eig >= -tol, strict=min_eig > tol, min_eig=min_eig, eigenvalues=eigs
    )


def _random_search_grid(rng, span_max: float, n_max: int) -> TimeGrid:
    n = int(rng.integers(1, n_max + 1))
    if rng.random() < 0.1:
        # low-frequency defects live on the largest allowed grid
        return TimeGrid(np.linspace(0.0, span_max, n_max))
    if n == 1:
        return TimeGrid(np.zeros(1))
    span = span_max * 10.0 ** rng.uniform(-3.0, 0.0)
    if rng.random() < 0.5:
        times = np.linspace(0.0, span, n)
    else:
        g = 10.0 ** rng.uniform(0.02, min(1.0, 8.0 / n))
        i = np.arange(n, dtype=float)
        times = span * (g**i - 1.0) / (g ** (n - 1) - 1.0)
        times[0] = 0.0
    return TimeGrid(times)


def search_violation(
    kernel: DecayKernel,
    span_max: float,
    n_max: int,
    budget: int = 10_000,
    seed: int = 0,
) -> Optional[GramWitness]:
    """Search random grids for a negative-cost trade vector.

    Draws grid sizes up to ``n_max`` and spans log-uniformly up to
    ``span_max``, mixing equidistant with geometric spacing and occasional
    probes of the maximal grid (long coarse grids expose low-frequency
    defects, short ones high-frequency defects).  Returns the first witness
    whose quadratic form falls below ``-WITNESS_REL_TOL * ||Gram||``, or None once the
    budget is exhausted.
    """
    if not span_max > 0:
        raise ValueError("span_max must be positive")
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        grid = _random_search_grid(rng, span_max, n_max)
        gram = assemble_gram(kernel, grid)
        bound = gram.bound
        # only Grams that fail the in-place probe pay for an eigendecomposition,
        # of the Gram the probe leaves whole, and the unit min-eigenvector is
        # the witness
        if gram.shifted_factor(WITNESS_REL_TOL * bound) is None:
            value, xi = _min_eigenpair(gram.blocks)
            if value < -WITNESS_REL_TOL * bound:
                return GramWitness(grid, xi.reshape(grid.n, kernel.dimension), value)
    return None


def _spectral_evidence(kernel: DecayKernel, rng):
    """Worst eigenvalue over 20 random search grids (see
    :func:`_random_search_grid`); a witness from the first Gram that fails
    :func:`check_grid_pd`'s PSD test."""
    worst = math.inf
    witness = None
    for _ in range(20):
        gram = assemble_gram(kernel, _random_search_grid(rng, EVIDENCE_SPAN, EVIDENCE_N_MAX))
        value, xi = _min_eigenpair(gram.blocks)
        worst = min(worst, value)
        if witness is None and value < -PSD_REL_TOL * (1.0 + gram.bound):
            witness = GramWitness(gram.grid, xi.reshape(gram.size, gram.dimension), value)
    return worst, witness


def _searched_not_pd(kernel, seed, rng) -> PosDefReport:
    """NotPD backed by a witness checked on its own Gram: the one-trade grid's
    (``tilde(0)``) smallest eigenpair if negative, else one searched for within
    the family's ``violation_box``; undetermined if none is found in budget."""
    gram = assemble_gram(kernel, TimeGrid(np.zeros(1)))
    value, xi = _min_eigenpair(gram.blocks)
    witness = GramWitness(gram.grid, xi.reshape(1, -1), value)
    if not value < -WITNESS_REL_TOL * gram.bound:
        span_max, n_max = kernel.violation_box
        witness = search_violation(kernel, span_max=span_max, n_max=n_max, budget=4000, seed=seed)
    if witness is not None:
        return PosDefReport("not_pd", witness.value, witness, "analytic_family")
    worst, _ = _spectral_evidence(kernel, rng)
    return PosDefReport("undetermined", worst, None, "spectral")


def classify_positive_definite(kernel: DecayKernel, seed: int = 0) -> PosDefReport:
    """Classify a kernel as strictly PD / PD / not PD / undetermined.

    Applies, in order, with no other family rule: the family's closed-form
    criterion (:meth:`DecayKernel.pd_class`; its ``"not_pd"`` stands only with
    the witness of :func:`_searched_not_pd`), the congruence and
    temporary-impact rules on the inner kernel, the shape theorem on
    closed-form facts (symmetric + nonnegative + nonincreasing + convex
    implies PD; it would be strict if every quadratic form were nonconstant,
    which is only ever sampled), and finally spectral evidence on random
    grids.  Sampling alone never yields a PD verdict; it can only falsify
    (with a witness) or leave the kernel undetermined.
    """
    rng = np.random.default_rng(seed)

    pd_class = kernel.pd_class()
    if pd_class in ("strict_pd", "pd"):
        return PosDefReport(pd_class, None, None, "analytic_family")
    if pd_class == "not_pd":
        return _searched_not_pd(kernel, seed, rng)

    if isinstance(kernel, CongruenceKernel):
        # congruence by an invertible matrix preserves (strict) positive
        # definiteness in both directions
        inner = classify_positive_definite(kernel.inner, seed=seed)
        if inner.verdict in ("strict_pd", "pd"):
            return PosDefReport(inner.verdict, inner.min_eig, None, inner.method)
        if inner.verdict == "not_pd" and inner.witness is not None:
            inv = np.linalg.inv(kernel.L)
            trades = inner.witness.trades @ inv.T
            scale = np.linalg.norm(trades)
            trades = trades / scale
            gram = assemble_gram(kernel, inner.witness.grid)
            value = gram.quadratic_form(trades)
            if value < -WITNESS_REL_TOL * gram.bound:
                witness = GramWitness(inner.witness.grid, trades, value)
                return PosDefReport("not_pd", value, witness, inner.method)

    if isinstance(kernel, PlusTemporaryKernel):
        inner = classify_positive_definite(kernel.inner, seed=seed)
        if inner.verdict in ("strict_pd", "pd"):
            low = _min_eigenpair(0.5 * (kernel.H0 + kernel.H0.T))[0]
            if low > SYM_TOL * (1.0 + _maxabs(kernel.H0)):
                return PosDefReport("strict_pd", inner.min_eig, None, inner.method)
            return PosDefReport(inner.verdict, inner.min_eig, None, inner.method)

    if pd_class is None:
        flags, structure = kernel.shape_flags(), kernel.structure()
        if flags is not None and structure is not None and structure[0] and all(
            flags[p] for p in ("nonnegative", "nonincreasing", "convex")
        ):
            return PosDefReport("pd", None, None, "analytic_theorem")

    worst, witness = _spectral_evidence(kernel, rng)
    if witness is not None:
        return PosDefReport("not_pd", worst, witness, "search")
    return PosDefReport("undetermined", worst, None, "spectral")
