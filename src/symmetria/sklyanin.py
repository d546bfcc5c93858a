"""Elliptic r/R-matrices, Yang-Baxter residuals, the RLL exchange relation,
Sklyanin-algebra representations, Poisson tensors from volume contraction,
and quantitative classical-limit probes.

Classical coefficients: w1 = rho/sn, w2 = rho dn/sn, w3 = rho cn/sn at
modulus k.  Quantum coefficients: W1 = sn(i eta)/sn(u+i eta) and the dn/cn
weighted analogues, so that R(u) = 1 + sum W_a sigma_a x sigma_a.  Index
triples (alpha, beta, gamma) in the quadratic relations run over cyclic
permutations of (1,2,3); the alternative free-sum reading collapses by
antisymmetry and is kept only as a reported control.

The r/R-matrices are weighted sums of the constant sigma_a x sigma_a,
built once at import.  Every tensor-leg placement goes through one
embedding: reshape the two-site operator into its four leg indices, take
the outer product with the identity on the third leg, transpose the legs
into place and reshape back.  The Yang-Baxter residuals use it once, at
import: each constant sigma_a x sigma_a is embedded on each leg pair
(0,1), (0,2), (1,2) of C^2 x C^2 x C^2, so a sample's r12, r13 or r23 is
its weight row times that leg basis (plus the identity for R).  The
exchange relation embeds R, L' and L'' per call.  Inputs are validated
once, where they enter (``_embed_pair``, the leg-basis stacks,
``SklyaninRep``), not inside the products.

The weights, matrices and residuals take a scalar u (and v) or arrays of
them.  A residual computes and checks the weights at u - v, u and v of
every sample in one weight call, then builds the (B, 8, 8) stacks and
their products at most ``_BLOCK`` samples at a time: one sup norm per
sample, or a float for scalar u, v.

The quadratic Poisson brackets on four coordinates (the volume-contraction
tensors and the classical Sklyanin bracket) are dense coefficient arrays
B[k, l, m, n], with {x_k, x_l} = sum_mn B[k, l, m, n] x_m x_n.  Their
identities (Jacobi, the classical exchange relation) have fixed degree, so
each is one ``np.einsum`` contraction whose result is the array of monomial
coefficients.  The volume-contraction tensors are int64, and their Jacobi
check is exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .elliptic import EllipticPoleError, quarter_period, sn_cn_dn_complex, sn_cn_dn_real
from .liealg import levi_civita
from .numerics import accepted_rows, as_matrix, kron, sup_norm, worst_of

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# sigma_a x sigma_a on C^2 x C^2; the r- and R-matrices are weighted sums
# of these.
SIGMA_PAIR = tuple(kron(s, s) for s in SIGMA)

CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


@dataclass(frozen=True)
class ClassicalRParams:
    rho: float
    k: float

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if not 0.0 <= self.k < 1.0:
            raise ValueError("modulus must lie in [0,1)")


@dataclass(frozen=True)
class QuantumRParams:
    eta: float
    k: float

    def __post_init__(self):
        if self.eta == 0:
            raise ValueError("eta must be nonzero")
        if not 0.0 <= self.k < 1.0:
            raise ValueError("modulus must lie in [0,1)")


def _require_off_zero_lattice(u, k: float) -> None:
    """Every u at least 1e-6 away from the real zero lattice 2K Z of sn;
    the error names the first u that is not (by flat index for an array)."""
    x = np.atleast_1d(np.asarray(u, dtype=float))
    K = quarter_period(k)
    zero = 2.0 * K * np.round(x / (2.0 * K))
    near = np.abs(x - zero) < 1e-6
    if near.any():
        i = int(np.flatnonzero(near)[0])
        raise EllipticPoleError(complex(x.flat[i]), complex(zero.flat[i]),
                                None if np.ndim(u) == 0 else i)


def classical_w(u, p: ClassicalRParams) -> tuple:
    """(w1, w2, w3) = rho (1, dn, cn)/sn at (u, k); poles at sn = 0.
    Floats for a scalar u, arrays of u's shape for an array."""
    _require_off_zero_lattice(u, p.k)
    s, c, d = sn_cn_dn_real(u, p.k)
    return p.rho / s, p.rho * d / s, p.rho * c / s


def classical_quadric(p: ClassicalRParams) -> dict:
    """The u-independent differences J_ab = w_a^2 - w_b^2."""
    return {
        (1, 2): p.rho ** 2 * p.k ** 2,
        (1, 3): p.rho ** 2,
        (2, 3): p.rho ** 2 * (1.0 - p.k ** 2),
    }


def _pair_sum(w) -> np.ndarray:
    """sum_a w_a sigma_a x sigma_a for weights w of shape (..., 3): a 4x4
    matrix per weight triple, stacked over the leading axes."""
    w = np.asarray(w)
    return (w[..., 0, None, None] * SIGMA_PAIR[1] + w[..., 1, None, None] * SIGMA_PAIR[2]
            + w[..., 2, None, None] * SIGMA_PAIR[3])


def classical_r(u, p: ClassicalRParams) -> np.ndarray:
    """r(u) = sum_a w_a(u) sigma_a x sigma_a: a 4x4 matrix, or an (n, 4, 4)
    stack for n arguments."""
    return _pair_sum(np.stack(classical_w(u, p), axis=-1))


def _leg_axes(legs: tuple[int, int]) -> tuple:
    """Transpose taking the axes (row_i, row_j, col_i, col_j, row_free,
    col_free) of a two-leg operator times the identity to (row_0, row_1,
    row_2, col_0, col_1, col_2) for legs = (i, j)."""
    free = 3 - legs[0] - legs[1]
    axes = [0] * 6
    axes[legs[0]], axes[legs[1]], axes[free] = 0, 1, 4
    axes[3 + legs[0]], axes[3 + legs[1]], axes[3 + free] = 2, 3, 5
    return tuple(axes)


_LEG_AXES = {legs: _leg_axes(legs) for legs in itertools.permutations(range(3), 2)}


def _on_legs(m: np.ndarray, legs: tuple[int, int], dims: tuple[int, int, int]) -> np.ndarray:
    """m, acting on factors legs[0] x legs[1] of a three-factor space with
    factor dimensions `dims`, tensored with the identity on the third
    factor.  Leading axes of m are batch axes: an (n, a, a) stack embeds
    into an (n, N, N) stack.  Exact: every entry is an entry of m or zero."""
    legs = tuple(legs)
    if legs not in _LEG_AXES:
        raise ValueError(f"legs must be two distinct indices in 0..2, got {legs!r}")
    i, j = legs
    n = dims[0] * dims[1] * dims[2]
    batch = m.shape[:-2]
    t = np.multiply.outer(m.reshape(*batch, dims[i], dims[j], dims[i], dims[j]),
                          np.eye(dims[3 - i - j]))
    lead = tuple(range(len(batch)))
    return t.transpose(lead + tuple(len(batch) + a for a in _LEG_AXES[legs])).reshape(*batch, n, n)


def _embed_pair(m4, legs: tuple[int, int]) -> np.ndarray:
    """Embed a two-site operator, a 4x4 matrix on C^2 x C^2 (or an (n, 4, 4)
    stack of them), into legs (i, j) of C^2 x C^2 x C^2 with the identity
    on the remaining leg.  Every matrix must be finite; the error names the
    first one that is not."""
    m = np.asarray(m4, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-site operator, got shape {m.shape}")
    _require_finite(m.reshape(*m.shape[:-2], 16))
    return _on_legs(m, legs, (2, 2, 2))


def _require_finite(flat: np.ndarray) -> None:
    # every flattened matrix (a row of flat) finite; a stack names the first that is not
    finite = np.isfinite(flat).all(axis=-1)
    if not finite.all():
        at = "" if flat.ndim == 1 else f" (operator {int(np.flatnonzero(~finite)[0])})"
        raise ValueError(f"matrix entries must be finite{at}")


# sigma_a x sigma_a (a = 1..3) embedded on each leg pair of C^2 x C^2 x C^2
# once, flattened to a (3, 64) basis per pair.
_LEG_BASIS = {legs: _on_legs(np.stack(SIGMA_PAIR[1:]), legs, (2, 2, 2)).reshape(3, 64)
              for legs in ((0, 1), (0, 2), (1, 2))}


def _leg_stack(w, legs: tuple[int, int], one: bool = False) -> np.ndarray:
    """sum_a w_a sigma_a x sigma_a on legs (i, j) of C^2 x C^2 x C^2, plus
    the identity if `one` (R rather than r): an (n, 8, 8) stack for (n, 3)
    weights w.  Every matrix must be finite; the error names the first one
    that is not."""
    m = w @ _LEG_BASIS[legs]
    if one:
        m[:, ::9] += 1.0
    _require_finite(m)
    return m.reshape(-1, 8, 8)


# Samples per block of the batched residuals: bounds the (block, 8, 8)
# temporaries of a long sweep.
_BLOCK = 128


def _sup_per_sample(defect, weights, u, v, p):
    """Sup norm per sample of defect(w12, w13, w23), the (len, N, N) defect
    stack built from the (len, 3) weights at u - v, u and v of at most
    _BLOCK samples.  One ``weights`` call on the stacked legs gives them
    all; its pole error names the sample a call on the failing leg would.
    A float for scalar u, v; an array of their broadcast length otherwise."""
    legs = np.stack(np.broadcast_arrays(u - v, u, v))
    try:
        w = np.stack(weights(legs, p), axis=-1).reshape(3, legs[0].size, 3)
    except EllipticPoleError as err:
        at = None if legs.ndim == 1 else err.index % (legs.size // 3)
        raise EllipticPoleError(err.z, err.pole, at, err.condition) from None
    out = np.empty(w.shape[1])
    for start in range(0, len(out), _BLOCK):
        out[start:start + _BLOCK] = np.abs(defect(*w[:, start:start + _BLOCK])).max(axis=(-2, -1))
    return float(out[0]) if legs.ndim == 1 else out


def cybe_residual(u, v, p: ClassicalRParams):
    """Sup norm of [r12(u-v), r13(u)] + [r12(u-v), r23(v)] + [r13(u), r23(v)]:
    a float for scalar u, v, one residual per sample for arrays."""
    def defect(w12, w13, w23):
        r12 = _leg_stack(w12, (0, 1))
        r13 = _leg_stack(w13, (0, 2))
        r23 = _leg_stack(w23, (1, 2))
        return (r12 @ r13 - r13 @ r12) + (r12 @ r23 - r23 @ r12) + (r13 @ r23 - r23 @ r13)

    return _sup_per_sample(defect, classical_w, u, v, p)


@functools.lru_cache(maxsize=64)
def _weights_at_shift(eta: float, k: float) -> tuple[complex, complex, complex]:
    """sn, cn, dn at i eta: the u-independent factors of the quantum weights."""
    return sn_cn_dn_complex(complex(0.0, eta), k)


def quantum_W(u, p: QuantumRParams) -> tuple:
    """(W1, W2, W3) built from sn, cn, dn at u + i eta and at i eta.
    Complex numbers for a scalar u, arrays of u's shape for an array; a
    scalar is evaluated as a one-element array.  Every |sn(u + i eta)| must
    be at least 1e-12; the error names the first that is not."""
    x = np.atleast_1d(np.asarray(u, dtype=float))
    z = x + 1j * p.eta
    s, c, d = sn_cn_dn_complex(z, p.k)
    se, ce, de = _weights_at_shift(p.eta, p.k)
    small = np.abs(s) < 1e-12
    if small.any():
        i = int(np.flatnonzero(small)[0])
        raise EllipticPoleError(complex(z.flat[i]), 0j, None if np.ndim(u) == 0 else i,
                                condition=f"has |sn(u + i eta)| = {abs(s.flat[i]):.3g} < 1e-12, "
                                          "a pole of the quantum weights")
    W = (se / s, (d / s) * (se / de), (c / s) * (se / ce))
    return tuple(complex(w[0]) for w in W) if np.ndim(u) == 0 else W


def quantum_curve(p: QuantumRParams, u_ref=0.7) -> dict:
    """J_ab = (W_a^2 - W_b^2)/(W_c^2 - 1) at a reference argument (or an
    array of them); the constancy in u is verified separately."""
    return _curve_of(quantum_W(u_ref, p))


def _curve_of(W) -> dict:
    # J_ab = (W_a^2 - W_b^2)/(W_c^2 - 1) from the weights at one argument
    return {(a, b): (W[a - 1] ** 2 - W[b - 1] ** 2) / (W[c - 1] ** 2 - 1.0)
            for a, b, c in ((1, 2, 3), (1, 3, 2), (2, 3, 1))}


def _R_of(w) -> np.ndarray:
    # R = 1 + sum_a W_a sigma_a x sigma_a for quantum weights w of shape (..., 3)
    return np.eye(4, dtype=complex) + _pair_sum(w)


def quantum_R(u, p: QuantumRParams) -> np.ndarray:
    """R(u) = 1 + sum_a W_a(u) sigma_a x sigma_a: a 4x4 matrix, or an
    (n, 4, 4) stack for n arguments."""
    return _R_of(np.stack(quantum_W(u, p), axis=-1))


def qybe_residual(u, v, p: QuantumRParams):
    """Sup norm of R12(u-v) R13(u) R23(v) - R23(v) R13(u) R12(u-v): a float
    for scalar u, v, one residual per sample for arrays."""
    def defect(w12, w13, w23):
        r12 = _leg_stack(w12, (0, 1), one=True)
        r13 = _leg_stack(w13, (0, 2), one=True)
        r23 = _leg_stack(w23, (1, 2), one=True)
        return r12 @ r13 @ r23 - r23 @ r13 @ r12

    return _sup_per_sample(defect, quantum_W, u, v, p)


# ---------------------------------------------------------------------------
# Sklyanin algebra representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SklyaninRep:
    """Generators S0..S3 as d x d matrices and the defining triple J.

    ``sigma_S`` holds the four factors sigma_a x S_a on aux x quantum that
    every L operator is a weighted sum of, built once with the validation."""

    dim: int
    S: tuple
    J: tuple
    sigma_S: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        S = tuple(as_matrix(g) for g in self.S)
        if len(S) != 4 or any(g.shape != (self.dim, self.dim) for g in S):
            raise ValueError(f"a representation needs four {self.dim}x{self.dim} generators")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "sigma_S", tuple(kron(SIGMA[a], S[a]) for a in range(4)))

    def J_pair(self, a: int, b: int) -> float:
        """J_ab = -(J_a - J_b)/J_c with c the remaining index."""
        c = ({1, 2, 3} - {a, b}).pop()
        return -(self.J[a - 1] - self.J[b - 1]) / self.J[c - 1]


def rep2() -> SklyaninRep:
    """Two-dimensional representation: S0 = 1, S_a = sigma_a.

    Both families of commutation relations degenerate to Pauli identities;
    the J triple is immaterial and fixed to (1,1,1)."""
    return SklyaninRep(dim=2, S=tuple(SIGMA), J=(1.0, 1.0, 1.0))


def rep3(J1: float, J2: float, J3: float) -> SklyaninRep:
    """Three-dimensional representation; self-adjoint only for positive J."""
    if min(J1, J2, J3) <= 0:
        raise ValueError("rep3 requires positive J1, J2, J3")
    S0 = np.array([[J3, 0, J1 - J2], [0, J1 + J2 - J3, 0], [J1 - J2, 0, J3]], dtype=complex)
    S1 = math.sqrt(2 * J2 * J3) * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    S2 = math.sqrt(2 * J3 * J1) * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex)
    S3 = 2 * math.sqrt(J1 * J2) * np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
    return SklyaninRep(dim=3, S=(S0, S1, S2, S3), J=(float(J1), float(J2), float(J3)))


def sklyanin_residual(rep: SklyaninRep, convention: str = "cyclic") -> float:
    """Max defect of [S_a,S_0] = -i J_bc [S_b,S_c]_+ and
    [S_a,S_b] = i [S_0,S_c]_+ over cyclic triples.

    convention='summed' replaces J_bc [S_b,S_c]_+ by the free double sum,
    which vanishes by antisymmetry; it is kept as the reported control for
    the index-convention ambiguity."""
    S = rep.S
    worst = 0.0
    for a, b, c in CYCLIC:
        if convention == "cyclic":
            rhs1 = -1j * rep.J_pair(b, c) * (S[b] @ S[c] + S[c] @ S[b])
        elif convention == "summed":
            rhs1 = np.zeros_like(S[0])
            for bb in (1, 2, 3):
                for cc in (1, 2, 3):
                    if bb != cc:
                        rhs1 += -1j * rep.J_pair(bb, cc) * (S[bb] @ S[cc] + S[cc] @ S[bb])
        else:
            raise ValueError(f"unknown convention {convention!r}")
        worst = worst_of(worst, sup_norm(S[a] @ S[0] - S[0] @ S[a] - rhs1),
                         sup_norm(S[a] @ S[b] - S[b] @ S[a] - 1j * (S[0] @ S[c] + S[c] @ S[0])))
    return worst


def _L_of(w, rep: SklyaninRep) -> np.ndarray:
    # L = sigma_0 x S_0 + sum_a W_a sigma_a x S_a for weights w of shape (..., 3)
    w = np.asarray(w)
    out = rep.sigma_S[0]
    for a in (1, 2, 3):
        out = out + w[..., a - 1, None, None] * rep.sigma_S[a]
    return out


def L_operator(u, rep: SklyaninRep, p: QuantumRParams) -> np.ndarray:
    """L(u) = sigma_0 x S_0 + sum_a W_a(u) sigma_a x S_a on aux x quantum:
    a 2d x 2d matrix, or an (n, 2d, 2d) stack for n arguments."""
    return _L_of(np.stack(quantum_W(u, p), axis=-1), rep)


def _rll_factors(w_uv, w_u, w_v, rep: SklyaninRep) -> tuple:
    """R(u-v), L'(u) and L''(v) on aux1 x aux2 x quantum from the weight
    stacks (n, 3) at u-v, u and v: R on the two auxiliary legs, L(u) on
    aux1 x quantum, L(v) on aux2 x quantum."""
    dims = (2, 2, rep.dim)
    return (_on_legs(_R_of(w_uv), (0, 1), dims),
            _on_legs(_L_of(w_u, rep), (0, 2), dims),
            _on_legs(_L_of(w_v, rep), (1, 2), dims))


def rll_residual(u, v, rep: SklyaninRep, p: QuantumRParams):
    """Sup norm of R(u-v) L'(u) L''(v) - L''(v) L'(u) R(u-v) on
    aux1 x aux2 x quantum (dimension 4 d): a float for scalar u, v, one
    residual per sample for arrays."""
    def defect(*w):
        R, Lp, Lpp = _rll_factors(*w, rep)
        return R @ Lp @ Lpp - Lpp @ Lp @ R

    return _sup_per_sample(defect, quantum_W, u, v, p)


# ---------------------------------------------------------------------------
# Poisson tensors from volume contraction
# ---------------------------------------------------------------------------

# Largest |entry| of a bracket tensor: every int64 sum in
# poisson_jacobi_defect stays below 864 * TENSOR_BOUND**2 < 2**63.  Spec
# entries up to SPEC_BOUND give |a_i b_j - b_i a_j| <= 2 * SPEC_BOUND**2.
TENSOR_BOUND = 2 ** 26
SPEC_BOUND = 2 ** 12


@dataclass(frozen=True)
class PoissonTensorSpec:
    a: tuple
    b: tuple

    def __post_init__(self):
        if len(self.a) != 4 or len(self.b) != 4:
            raise ValueError("specs are 4-vectors")
        if not all(isinstance(z, numbers.Integral) and abs(z) <= SPEC_BOUND
                   for z in (*self.a, *self.b)):
            raise ValueError(f"spec entries must be integers of magnitude at most {SPEC_BOUND}")


# eps_klij as an int64 array
_EPS4 = np.array([[[[levi_civita(k, l, i, j) for j in range(4)] for i in range(4)]
                   for l in range(4)] for k in range(4)], dtype=np.int64)


def poisson_tensor(spec: PoissonTensorSpec) -> np.ndarray:
    """Bracket coefficients C[k, l, i, j], an int64 array, with
    {x_k, x_l} = sum_{i<j} C[k, l, i, j] x_i x_j and
    C[k, l, i, j] = eps_klij (a_i b_j - b_i a_j): one term per unordered
    pair {i, j} (the free double sum doubles it), zero for i >= j.  For
    k != l the only such pair is the complement i < j of {k, l}."""
    a = np.asarray(spec.a, dtype=np.int64)
    b = np.asarray(spec.b, dtype=np.int64)
    wedge = np.triu(np.multiply.outer(a, b) - np.multiply.outer(b, a), 1)
    return _EPS4 * wedge


# Number of distinct orderings of (m, n, p) for m <= n <= p, zero otherwise:
# a symmetric cubic coefficient array summed over all six orderings, times
# this and divided by 6, gives the coefficient of the monomial x_m x_n x_p.
_ORDERINGS = np.array([[[len(set(itertools.permutations((m, n, q)))) if m <= n <= q else 0
                         for q in range(4)] for n in range(4)] for m in range(4)], dtype=np.int64)


def poisson_jacobi_defect(C) -> np.ndarray:
    """Monomial coefficients of the cyclic sums
    {x_i, {x_j, x_k}} + {x_j, {x_k, x_i}} + {x_k, {x_i, x_j}} for the
    quadratic bracket {x_k, x_l} = sum_ij C[k, l, i, j] x_i x_j: an int64
    array D[i, j, k, m, n, p] holding the coefficient of x_m x_n x_p for
    m <= n <= p (zero elsewhere).  All zeros certifies the Jacobi identity,
    exactly; it holds for every tensor from the volume-contraction
    construction.  C must be an integer array antisymmetric in (k, l) with
    entries at most TENSOR_BOUND in magnitude."""
    C = np.asarray(C)
    if (C.dtype.kind not in "iu" or C.min() < -TENSOR_BOUND or C.max() > TENSOR_BOUND
            or (C + C.swapaxes(0, 1)).any()):
        raise ValueError("expected an integer tensor antisymmetric in its first two indices, "
                         f"with entries at most {TENSOR_BOUND} in magnitude")
    C = C.astype(np.int64)
    # d_l {x_j, x_k} = sum_p G[j, k, l, p] x_p, and {x_i, g} = sum_l {x_i, x_l} d_l g
    G = C + C.swapaxes(-1, -2)
    T = np.einsum("ilmn,jklp->ijkmnp", C, G)
    cyclic = T + T.transpose(2, 0, 1, 3, 4, 5) + T.transpose(1, 2, 0, 3, 4, 5)
    sym = sum(cyclic.transpose(0, 1, 2, *(3 + q for q in perm))
              for perm in itertools.permutations(range(3)))
    return sym * _ORDERINGS // 6


# ---------------------------------------------------------------------------
# Classical Sklyanin bracket check and classical limits
# ---------------------------------------------------------------------------

def classical_sklyanin_bracket_residual(p: ClassicalRParams, u: float, v: float) -> float:
    """Max coefficient mismatch of {L'(u), L''(v)} = [r(u-v), L'(u) L''(v)]
    over the quadratic monomials S_m S_n, where
    L(u) = S_0 + i sum_a w_a(u) S_a sigma_a and the Sklyanin bracket is
    {S_a, S_0} = 2 J_bc S_b S_c, {S_a, S_b} = -2 S_0 S_c over cyclic
    (a, b, c), J_bc from ``classical_quadric``."""
    J = classical_quadric(p)
    # {S_k, S_l} = sum_mn B[k, l, m, n] S_m S_n, one term per unordered pair
    B = np.zeros((4, 4, 4, 4))
    for a, b, c in CYCLIC:
        B[a, 0, min(b, c), max(b, c)] = 2.0 * (J[(b, c)] if b < c else -J[(c, b)])
        B[a, b, 0, c] = -2.0
    B = B - B.swapaxes(0, 1)

    def L_coeffs(x):
        # L(x)_ij = sum_m L[i, j, m] S_m
        w = classical_w(x, p)
        return np.stack([SIGMA[0]] + [1j * w[a - 1] * SIGMA[a] for a in (1, 2, 3)], axis=-1)

    Lu, Lv = L_coeffs(u), L_coeffs(v)
    r = classical_r(u - v, p)
    # row (i1, i2) -> 2 i1 + i2 and column (j1, j2) -> 2 j1 + j2 of aux1 x aux2
    lhs = np.einsum("abk,cdl,klmn->acbdmn", Lu, Lv, B).reshape(4, 4, 4, 4)
    prod = np.einsum("abm,cdn->acbdmn", Lu, Lv).reshape(4, 4, 4, 4)
    D = lhs - (np.einsum("rs,scmn->rcmn", r, prod) - np.einsum("rsmn,sc->rcmn", prod, r))
    # coefficient of S_m S_n: D_mn + D_nm for m < n, D_mm on the diagonal
    m, n = np.triu_indices(4)
    return worst_of(np.abs((D + np.triu(D.swapaxes(-1, -2), 1))[..., m, n]))


def classical_limit_probe(u: float, p_base: ClassicalRParams, h_sequence) -> dict:
    """Log-log slopes of the three classical-limit errors under eta = rho h:
    e1 = max_a |W_a - i h w_a|,  e2 = |R - 1 - i h r|,  e3 = max |J_q - h^2 J|."""
    w = classical_w(u, p_base)
    r = classical_r(u, p_base)
    Jcl = classical_quadric(p_base)
    e1, e2, e3 = [], [], []
    hs = list(h_sequence)
    for h in hs:
        qp = QuantumRParams(eta=p_base.rho * h, k=p_base.k)
        W = quantum_W(u, qp)
        e1.append(worst_of(*(abs(W[a] - 1j * h * w[a]) for a in range(3))))
        e2.append(sup_norm(_R_of(np.stack(W)) - np.eye(4) - 1j * h * r))
        Jq = _curve_of(W)
        e3.append(worst_of(*(abs(Jq[(a, b)] - h * h * Jcl[(a, b)]) for (a, b) in Jcl)))

    def slope(errs):
        return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    return {
        "e1_slope": slope(e1), "e2_slope": slope(e2), "e3_slope": slope(e3),
        "e1": e1, "e2": e2, "e3": e3,
    }


SWEEP_MARGIN = 0.05


def sweep_samples(rng: np.random.Generator, k: float, count: int) -> list:
    """Seeded (u, v) pairs with u, v, u-v all at least SWEEP_MARGIN away
    from the real zero lattice of sn (the pole set of the classical weights).

    The pairs are drawn as (m, 2) uniform blocks and rejected by an array
    mask, m being the number still missing, so they are the pairs, and the
    generator is left in the state, of a loop that draws u then v one pair
    at a time."""
    K = quarter_period(k)
    period = 2.0 * K

    def clear_of_poles(uv: np.ndarray) -> np.ndarray:
        args = np.column_stack((uv, uv[:, 0] - uv[:, 1]))
        return (np.abs(args - period * np.round(args / period)) >= SWEEP_MARGIN).all(axis=1)

    pairs = accepted_rows(lambda m: rng.uniform(SWEEP_MARGIN, period - SWEEP_MARGIN, (m, 2)),
                          clear_of_poles, count)
    return [tuple(pair) for pair in pairs.tolist()]
