"""Elliptic r/R-matrices, Yang-Baxter residuals, the RLL exchange relation,
Sklyanin-algebra representations, Poisson tensors from volume contraction,
and quantitative classical-limit probes.

Classical coefficients: w1 = rho/sn, w2 = rho dn/sn, w3 = rho cn/sn at
modulus k.  Quantum coefficients: W1 = sn(i eta)/sn(u+i eta) and the dn/cn
weighted analogues, so that R(u) = 1 + sum W_a sigma_a x sigma_a.  Index
triples (alpha, beta, gamma) in the quadratic relations run over cyclic
permutations of (1,2,3); the alternative free-sum reading collapses by
antisymmetry and is kept only as a reported control.

Every r, R and L operator is one flattened family (const, basis): a
constant n x n matrix plus sum_a w_a B_a over constant matrices B_1..B_3,
kept as arrays of shapes (n*n,) and (3, n*n).  r is 0 plus
sum_a w_a sigma_a x sigma_a, R is 1 plus the same sum, and L is
sigma_0 x S_0 plus sum_a W_a sigma_a x S_a.  One helper builds any of them
from (..., 3) weights as const + w @ B, one matmul.  A tensor-leg
placement embeds a whole family once, never a sample: reshape each of its
matrices into its four leg indices, take the outer product with the
identity on the third leg, transpose the legs into place and reshape
back.

The Yang-Baxter and exchange-relation defects are trilinear in the
weights x = (1, w) of their three factors: sum_abc x12_a x13_b x23_c D_abc
over products D_abc of the embedded family matrices.  A product table
keeps only the D_abc that are not the zero matrix (for Pauli legs, where
the Pauli strings do not commute): 24 of 64 for QYBE, 18 for CYBE, 24 and
48 for the exchange relation on rep2 and rep3.  The QYBE and CYBE tables
are built at import from the families embedded on the leg pairs (0,1),
(0,2), (1,2) of C^2 x C^2 x C^2; the exchange relation's on a
representation's first ``rll_residual`` call.

The weights, matrices and residuals take arrays of u (and v), a scalar
being the one-element array, and return results of their shape.  A
residual computes and checks the weights at u - v, u and v of every
sample in one weight call (the error names the sample), then, at most
``_BLOCK`` samples at a time, forms the coefficients of its table's rows
and one (B, K) @ (K, N*N) matmul: one sup norm per sample.  An overflow
inside the sum gives a non-finite residual, which fails its row.

The quadratic Poisson brackets on four coordinates (the volume-contraction
tensors and the classical Sklyanin bracket) are dense coefficient arrays
B[k, l, m, n], with {x_k, x_l} = sum_mn B[k, l, m, n] x_m x_n.  Their
identities (Jacobi, the classical exchange relation) have fixed degree, so
each is a fixed contraction whose result is the array of monomial
coefficients.  The volume-contraction tensors are int64, built for a whole
(..., 4) stack of specs in one call, and their Jacobi check is exact and
stacked too: it computes only the 80 independent coefficients (4 triples
i < j < k times 20 monomials m <= n <= p) of each tensor.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .elliptic import EllipticPoleError, quarter_period, sn_cn_dn_complex, sn_cn_dn_real
from .liealg import levi_civita
from .numerics import accepted_rows, as_matrix, kron, require, sup_norm, worst_of

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))

# The r- and R-matrix families: const 0 or 1 on C^2 x C^2, basis
# sigma_a x sigma_a (a = 1..3), flattened.
_SIGMA_PAIRS = np.stack([kron(s, s) for s in SIGMA[1:]]).reshape(3, 16)
_CLASSICAL_R = (np.zeros(16, dtype=complex), _SIGMA_PAIRS)
_QUANTUM_R = (np.eye(4, dtype=complex).ravel(), _SIGMA_PAIRS)


def _build(family: tuple, w: np.ndarray) -> np.ndarray:
    """const + w @ B for the flattened family (const, B) and weights w of
    shape (..., 3): one n x n matrix per weight triple, stacked over the
    leading axes."""
    const, basis = family
    n = math.isqrt(const.size)
    return (const + w @ basis).reshape(*w.shape[:-1], n, n)


class ClassicalRParams:
    """Amplitude rho (finite, positive) and modulus k in [0, 1) of r(u)."""

    def __init__(self, rho: float, k: float):
        if not 0.0 < rho < math.inf:  # written so that a NaN fails
            raise ValueError("rho must be finite and positive")
        if not 0.0 <= k < 1.0:
            raise ValueError("modulus must lie in [0,1)")
        self.rho = rho
        self.k = k


class QuantumRParams:
    """Shift eta (finite, nonzero) and modulus k in [0, 1) of R(u)."""

    def __init__(self, eta: float, k: float):
        if not (math.isfinite(eta) and eta != 0.0):
            raise ValueError("eta must be finite and nonzero")
        if not 0.0 <= k < 1.0:
            raise ValueError("modulus must lie in [0,1)")
        self.eta = eta
        self.k = k


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
                                i if np.ndim(u) else None)


def classical_w(u, p: ClassicalRParams) -> tuple:
    """(w1, w2, w3) = rho (1, dn, cn)/sn at (u, k), each of u's shape;
    poles at sn = 0."""
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


def classical_r(u, p: ClassicalRParams) -> np.ndarray:
    """r(u) = sum_a w_a(u) sigma_a x sigma_a: a 4x4 matrix, or an (n, 4, 4)
    stack for n arguments."""
    return _build(_CLASSICAL_R, np.stack(classical_w(u, p), axis=-1))


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


def _family_on_legs(family: tuple, legs: tuple[int, int], dims: tuple[int, int, int]) -> tuple:
    """The flattened family (const, basis) of operators on factors
    legs[0] x legs[1], embedded by one ``_on_legs`` call into the
    three-factor space of factor dimensions `dims`: again a flattened
    family."""
    const, basis = family
    n = math.isqrt(const.size)
    stack = np.concatenate((const[None], basis)).reshape(4, n, n)
    flat = _on_legs(stack, legs, dims).reshape(4, -1)
    return flat[0], flat[1:]


def _triple_table(f12: tuple, f13: tuple, f23: tuple) -> tuple:
    """The product table (i1, i2, i3, rows) of A B C - C B A for A, B, C
    from the embedded families f12, f13, f23: the (a, b, c) at which
    D_abc = F12[a] F13[b] F23[c] - F23[c] F13[b] F12[a] (F[0] the const,
    F[a] = B_a) is not the zero matrix, and those D_abc as (K, N*N) rows."""
    n = math.isqrt(f12[0].size)
    A, B, C = (np.concatenate((const[None], basis)).reshape(4, n, n) for const, basis in (f12, f13, f23))
    rows = (A[:, None, None] @ B[:, None] @ C - C @ B[:, None] @ A[:, None, None]).reshape(64, -1)
    keep = np.flatnonzero(rows.any(axis=1))
    return (*np.unravel_index(keep, (4, 4, 4)), rows[keep])


def _commutator_table(f12: tuple, f13: tuple, f23: tuple) -> tuple:
    """The product table of [A, B] + [A, C] + [B, C] for the embedded
    families f12, f13, f23 of const 0: the rows of degree two, an index 0,
    of the triple table of 1 + A, 1 + B, 1 + C."""
    one = np.eye(math.isqrt(f12[0].size), dtype=complex).ravel()
    i1, i2, i3, rows = _triple_table(*((one, basis) for _, basis in (f12, f13, f23)))
    quadratic = i1 * i2 * i3 == 0
    return i1[quadratic], i2[quadratic], i3[quadratic], rows[quadratic]


# The leg pairs of R12, R13, R23, the r and R families embedded on each of
# them in C^2 x C^2 x C^2, and the CYBE and QYBE product tables, once.
_YB_LEGS = ((0, 1), (0, 2), (1, 2))
_CLASSICAL_R_LEGS = {legs: _family_on_legs(_CLASSICAL_R, legs, (2, 2, 2)) for legs in _YB_LEGS}
_QUANTUM_R_LEGS = {legs: _family_on_legs(_QUANTUM_R, legs, (2, 2, 2)) for legs in _YB_LEGS}
_CYBE_TABLE = _commutator_table(*(_CLASSICAL_R_LEGS[legs] for legs in _YB_LEGS))
_QYBE_TABLE = _triple_table(*(_QUANTUM_R_LEGS[legs] for legs in _YB_LEGS))


# Samples per block of the batched residuals: bounds the (block, K)
# coefficient and (block, N*N) defect temporaries of a long sweep.
_BLOCK = 128


def _table_sup(table: tuple, w: np.ndarray) -> np.ndarray:
    """Sup norm per sample of sum_abc x12_a x13_b x23_c D_abc over the
    product table's rows, x = (1, w) from the (3, B, 3) weights at u - v, u
    and v: one (B, K) @ (K, N*N) matmul."""
    i1, i2, i3, rows = table
    x12, x13, x23 = np.concatenate((np.ones_like(w[..., :1]), w), axis=-1)
    return np.abs((x12[:, i1] * x13[:, i2] * x23[:, i3]) @ rows).max(axis=-1)


def _sup_per_sample(table, weights, u, v, p):
    """Sup norm per sample of the product table's defect at the weights at
    u - v, u and v, _BLOCK samples per ``_table_sup``.  One ``weights`` call
    on the stacked legs gives them all; its pole error names the sample a
    call on the failing leg would, and every weight must be finite (the
    error names the first sample that is not; neither names one for scalar
    u, v).  Residuals of the broadcast shape of u and v."""
    legs = np.stack(np.broadcast_arrays(u - v, u, v))
    shape = legs.shape[1:]
    try:
        w = np.stack(weights(legs, p), axis=-1).reshape(3, -1, 3)
    except EllipticPoleError as err:
        at = err.index % (legs.size // 3) if shape and err.index is not None else None
        raise EllipticPoleError(err.z, err.pole, at, err.condition) from None
    finite = np.isfinite(w).all(axis=(0, 2))
    if not finite.all():
        at = f" (sample {int(np.flatnonzero(~finite)[0])})" if shape else ""
        raise ValueError(f"weights must be finite{at}")
    out = np.empty(w.shape[1])
    for start in range(0, len(out), _BLOCK):
        out[start:start + _BLOCK] = _table_sup(table, w[:, start:start + _BLOCK])
    return out.reshape(shape)[()]


def cybe_residual(u, v, p: ClassicalRParams):
    """Sup norm of [r12(u-v), r13(u)] + [r12(u-v), r23(v)] + [r13(u), r23(v)],
    one residual per sample."""
    return _sup_per_sample(_CYBE_TABLE, classical_w, u, v, p)


def quantum_W(u, p: QuantumRParams) -> tuple:
    """(W1, W2, W3) of u's shape, from one ``sn_cn_dn_complex`` call at
    u + i eta with i eta appended (a pole there names no index, as it is no
    entry of u).  Every |sn(u + i eta)| must be at least 1e-12; the error
    names the first that is not."""
    z = np.atleast_1d(np.asarray(u, dtype=float)) + 1j * p.eta
    try:
        s, c, d = sn_cn_dn_complex(np.append(z, 1j * p.eta), p.k)
    except EllipticPoleError as err:
        at = err.index if np.ndim(u) and err.index < z.size else None
        raise EllipticPoleError(err.z, err.pole, at) from None
    # Python complex, as se / de must round as Python's division does
    se, ce, de = complex(s[-1]), complex(c[-1]), complex(d[-1])
    s, c, d = s[:-1], c[:-1], d[:-1]
    small = np.abs(s) < 1e-12
    if small.any():
        i = int(np.flatnonzero(small)[0])
        raise EllipticPoleError(complex(z.flat[i]), 0j, i if np.ndim(u) else None,
                                condition=f"has |sn(u + i eta)| = {abs(s.flat[i]):.3g} < 1e-12, "
                                          "a pole of the quantum weights")
    W = (se / s, (d / s) * (se / de), (c / s) * (se / ce))
    return tuple(w.reshape(np.shape(u))[()] for w in W)


def quantum_curve(p: QuantumRParams, u_ref=0.7) -> dict:
    """J_ab = (W_a^2 - W_b^2)/(W_c^2 - 1) at a reference argument (or an
    array of them); the constancy in u is verified separately."""
    return _curve_of(quantum_W(u_ref, p))


def _curve_of(W) -> dict:
    # J_ab = (W_a^2 - W_b^2)/(W_c^2 - 1) from the weights at one argument
    return {(a, b): (W[a - 1] ** 2 - W[b - 1] ** 2) / (W[c - 1] ** 2 - 1.0)
            for a, b, c in ((1, 2, 3), (1, 3, 2), (2, 3, 1))}


def quantum_R(u, p: QuantumRParams) -> np.ndarray:
    """R(u) = 1 + sum_a W_a(u) sigma_a x sigma_a: a 4x4 matrix, or an
    (n, 4, 4) stack for n arguments."""
    return _build(_QUANTUM_R, np.stack(quantum_W(u, p), axis=-1))


def qybe_residual(u, v, p: QuantumRParams):
    """Sup norm of R12(u-v) R13(u) R23(v) - R23(v) R13(u) R12(u-v), one
    residual per sample."""
    return _sup_per_sample(_QYBE_TABLE, quantum_W, u, v, p)


# ---------------------------------------------------------------------------
# Sklyanin algebra representations
# ---------------------------------------------------------------------------

class SklyaninRep:
    """Generators S0..S3 as d x d matrices and the defining triple J.

    ``L_family`` is the flattened family of the L operator on aux x
    quantum: the constant sigma_0 x S_0 and the basis sigma_a x S_a
    (a = 1..3), built once with the validation."""

    def __init__(self, dim: int, S: tuple, J: tuple):
        S = tuple(as_matrix(g) for g in S)
        if len(S) != 4 or any(g.shape != (dim, dim) for g in S):
            raise ValueError(f"a representation needs four {dim}x{dim} generators")
        self.dim = dim
        self.S = S
        self.J = J
        flat = np.stack([kron(SIGMA[a], S[a]) for a in range(4)]).reshape(4, -1)
        self.L_family = (flat[0], flat[1:])
        self._rll_table = None  # built on first use by _rll_table

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


def L_operator(u, rep: SklyaninRep, p: QuantumRParams) -> np.ndarray:
    """L(u) = sigma_0 x S_0 + sum_a W_a(u) sigma_a x S_a on aux x quantum:
    a 2d x 2d matrix, or an (n, 2d, 2d) stack for n arguments."""
    return _build(rep.L_family, np.stack(quantum_W(u, p), axis=-1))


def _rll_table(rep: SklyaninRep) -> tuple:
    """The product table of R L' L'' - L'' L' R on aux1 x aux2 x quantum
    (legs as in ``rll_residual``), built once per rep."""
    if rep._rll_table is None:
        dims = (2, 2, rep.dim)
        rep._rll_table = _triple_table(_family_on_legs(_QUANTUM_R, (0, 1), dims),
                                       _family_on_legs(rep.L_family, (0, 2), dims),
                                       _family_on_legs(rep.L_family, (1, 2), dims))
    return rep._rll_table


def rll_residual(u, v, rep: SklyaninRep, p: QuantumRParams):
    """Sup norm of R(u-v) L'(u) L''(v) - L''(v) L'(u) R(u-v) on
    aux1 x aux2 x quantum (dimension 4 d), one residual per sample.  R sits
    on the two auxiliary legs, L(u) on aux1 x quantum and L(v) on aux2 x
    quantum."""
    return _sup_per_sample(_rll_table(rep), quantum_W, u, v, p)


# ---------------------------------------------------------------------------
# Poisson tensors from volume contraction
# ---------------------------------------------------------------------------

# Largest |entry| of a bracket tensor: every int64 sum in
# poisson_jacobi_defect stays at most 144 * TENSOR_BOUND**2 < 2**63 (4 terms
# of l times G's factor 2, 3 cyclic terms, at most 6 orderings of a
# monomial).  Spec entries up to SPEC_BOUND give
# |a_i b_j - b_i a_j| <= 2 * SPEC_BOUND**2.
TENSOR_BOUND = 2 ** 26
SPEC_BOUND = 2 ** 12


# eps_klij as an int64 array
_EPS4 = np.array([[[[levi_civita(k, l, i, j) for j in range(4)] for i in range(4)]
                   for l in range(4)] for k in range(4)], dtype=np.int64)


def poisson_tensor(a, b) -> np.ndarray:
    """Bracket coefficients C[..., k, l, i, j], an int64 array, with
    {x_k, x_l} = sum_{i<j} C[k, l, i, j] x_i x_j and
    C[k, l, i, j] = eps_klij (a_i b_j - b_i a_j): one term per unordered
    pair {i, j} (the free double sum doubles it), zero for i >= j.  For
    k != l the only such pair is the complement i < j of {k, l}.  The specs
    a and b are (..., 4) arrays of integers of magnitude at most SPEC_BOUND,
    one tensor per spec pair of their broadcast leading axes; the error
    names the first pair that is out of range."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape[-1:] != (4,) or b.shape[-1:] != (4,):
        raise ValueError("specs are 4-vectors")
    message = f"spec entries must be integers of magnitude at most {SPEC_BOUND}"
    if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
        raise ValueError(message)
    require(((-SPEC_BOUND <= a) & (a <= SPEC_BOUND) & (-SPEC_BOUND <= b) & (b <= SPEC_BOUND))
            .all(axis=-1), message)
    a, b = a.astype(np.int64), b.astype(np.int64)
    wedge = np.triu(a[..., :, None] * b[..., None, :] - b[..., :, None] * a[..., None, :], 1)
    return _EPS4 * wedge[..., None, None, :, :]


# The independent Jacobi coefficients: the cyclic sum is totally
# antisymmetric in (i, j, k) and symmetric in its monomial (m, n, p), so
# the 4 triples i < j < k and the 20 monomials m <= n <= p determine it.
# Triple t takes {x_a, {x_b, x_c}} over its three cyclic (a, (b, c)),
# columns 3t..3t+2 of _CYCLIC_ABC; _MONOMIAL[16m + 4n + p, q] is 1 when
# (m, n, p) orders monomial q, and every (m, n, p) orders exactly one.
_CYCLIC_ABC = np.array([t[r:] + t[:r] for t in itertools.combinations(range(4), 3)
                        for r in range(3)]).T
_MONOMIAL_INDEX = {q: i for i, q in enumerate(itertools.combinations_with_replacement(range(4), 3))}
_MONOMIAL = np.eye(20, dtype=np.int64)[[_MONOMIAL_INDEX[tuple(sorted(mnp))]
                                        for mnp in itertools.product(range(4), repeat=3)]]


def poisson_jacobi_defect(C) -> np.ndarray:
    """Monomial coefficients of the cyclic sums
    {x_i, {x_j, x_k}} + {x_j, {x_k, x_i}} + {x_k, {x_i, x_j}} for the
    quadratic bracket {x_k, x_l} = sum_ij C[..., k, l, i, j] x_i x_j: an
    int64 array D[..., t, q] holding, for the t-th triple i < j < k of
    ``itertools.combinations`` and the q-th monomial x_m x_n x_p, m <= n <= p,
    of ``itertools.combinations_with_replacement``, its coefficient.  These
    80 determine every other coefficient (0 on a repeated index, and the
    sign of the permutation to the sorted triple), so all zeros certifies
    the Jacobi identity, exactly; it holds for every tensor from the
    volume-contraction construction.  C is one (4, 4, 4, 4) tensor or a
    stack of them; each must be an integer tensor antisymmetric in (k, l)
    with entries at most TENSOR_BOUND in magnitude, and the error names the
    first that is not."""
    C = np.asarray(C)
    message = ("expected an integer tensor antisymmetric in its first two indices, "
               f"with entries at most {TENSOR_BOUND} in magnitude")
    if C.dtype.kind not in "iu" or C.shape[-4:] != (4, 4, 4, 4):
        raise ValueError(message)
    require(((-TENSOR_BOUND <= C) & (C <= TENSOR_BOUND) & (C == -C.swapaxes(-4, -3)))
            .all(axis=(-4, -3, -2, -1)), message)
    C = C.astype(np.int64)
    # d_l {x_b, x_c} = sum_p G[b, c, l, p] x_p, and {x_a, g} = sum_l {x_a, x_l} d_l g
    G = C + C.swapaxes(-1, -2)
    # T[..., x, mn, p] = sum_l C[a, l, m, n] G[b, c, l, p] for the x-th cyclic
    # (a, (b, c)): one (16, 4) @ (4, 4) product each
    a, b, c = _CYCLIC_ABC
    batch = C.shape[:-4]
    T = C[..., a, :, :, :].reshape(*batch, 12, 4, 16).swapaxes(-1, -2) @ G[..., b, c, :, :]
    return T.reshape(*batch, 4, 3, 64).sum(axis=-2) @ _MONOMIAL


# ---------------------------------------------------------------------------
# Classical Sklyanin bracket check and classical limits
# ---------------------------------------------------------------------------

def classical_sklyanin_bracket_residual(p: ClassicalRParams, u, v):
    """Max coefficient mismatch of {L'(u), L''(v)} = [r(u-v), L'(u) L''(v)]
    over the quadratic monomials S_m S_n, one per pair of the broadcast
    u and v, where L(u) = S_0 + i sum_a w_a(u) S_a sigma_a and the Sklyanin
    bracket is {S_a, S_0} = 2 J_bc S_b S_c, {S_a, S_b} = -2 S_0 S_c over
    cyclic (a, b, c), J_bc from ``classical_quadric``."""
    J = classical_quadric(p)
    # {S_k, S_l} = sum_mn B[k, l, m, n] S_m S_n, one term per unordered pair
    B = np.zeros((4, 4, 4, 4))
    for a, b, c in CYCLIC:
        B[a, 0, min(b, c), max(b, c)] = 2.0 * (J[(b, c)] if b < c else -J[(c, b)])
        B[a, b, 0, c] = -2.0
    B = B - B.swapaxes(0, 1)

    def L_coeffs(x):
        # L(x)_ij = sum_m L[..., i, j, m] S_m, per pair
        w = classical_w(x, p)
        return np.stack([np.broadcast_to(SIGMA[0], x.shape + (2, 2))]
                        + [1j * np.asarray(w[a - 1])[..., None, None] * SIGMA[a] for a in (1, 2, 3)],
                        axis=-1)

    u, v = np.broadcast_arrays(u, v)
    Lu, Lv = L_coeffs(u), L_coeffs(v)
    r = classical_r(u - v, p)
    # row (i1, i2) -> 2 i1 + i2 and column (j1, j2) -> 2 j1 + j2 of aux1 x aux2
    lhs = np.einsum("...abk,...cdl,klmn->...acbdmn", Lu, Lv, B).reshape(u.shape + (4,) * 4)
    prod = np.einsum("...abm,...cdn->...acbdmn", Lu, Lv).reshape(u.shape + (4,) * 4)
    D = lhs - (np.einsum("...rs,...scmn->...rcmn", r, prod)
               - np.einsum("...rsmn,...sc->...rcmn", prod, r))
    # coefficient of S_m S_n: D_mn + D_nm for m < n, D_mm on the diagonal
    m, n = np.triu_indices(4)
    return np.abs((D + np.triu(D.swapaxes(-1, -2), 1))[..., m, n]).max(axis=(-3, -2, -1))[()]


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
        e2.append(sup_norm(_build(_QUANTUM_R, np.stack(W)) - np.eye(4) - 1j * h * r))
        Jq = _curve_of(W)
        e3.append(worst_of(*(abs(Jq[(a, b)] - h * h * Jcl[(a, b)]) for (a, b) in Jcl)))

    def slope(errs):
        return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])

    return {
        "e1_slope": slope(e1), "e2_slope": slope(e2), "e3_slope": slope(e3),
        "e1": e1, "e2": e2, "e3": e3,
    }


SWEEP_MARGIN = 0.05


def sweep_samples(rng: np.random.Generator, k: float, count: int) -> np.ndarray:
    """Seeded (u, v) pairs, a (count, 2) float array, with u, v, u-v all at
    least SWEEP_MARGIN away from the real zero lattice of sn (the pole set
    of the classical weights).

    The pairs are drawn as (m, 2) uniform blocks and rejected by an array
    mask, m being the number still missing, so they are the pairs, and the
    generator is left in the state, of a loop that draws u then v one pair
    at a time."""
    K = quarter_period(k)
    period = 2.0 * K

    def clear_of_poles(uv: np.ndarray) -> np.ndarray:
        args = np.column_stack((uv, uv[:, 0] - uv[:, 1]))
        return (np.abs(args - period * np.round(args / period)) >= SWEEP_MARGIN).all(axis=1)

    return accepted_rows(lambda m: rng.uniform(SWEEP_MARGIN, period - SWEEP_MARGIN, (m, 2)),
                         clear_of_poles, count)
