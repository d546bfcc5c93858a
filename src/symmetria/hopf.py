"""Hopf-algebra structure in concrete representations.

The q-deformed enveloping algebra of su(2) is realized by ladder matrices
on spins 1/2..2 in their weight basis, where H is diagonal.  The coproduct
maps two representations to one on their tensor product; coassociativity
iterates it both ways, and the counit and antipode axioms are matrix
identities.  A grid realization of the position/momentum pair with the
exponentially deformed commutator covers the Planck-scale example.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .numerics import CENTRAL_STENCILS, as_matrix, kron, stencil_sum, sup_norm, worst_of


def q_number(n: float, q: float) -> float:
    """[n]_q = (q^n - q^-n)/(q - q^-1)."""
    if q == 1.0:
        return float(n)
    return (q ** n - q ** (-n)) / (q - 1.0 / q)


def _require_q(q: float) -> None:
    if not 0.0 < q < math.inf:  # written so that a NaN fails
        raise ValueError("deformation parameter must be finite and positive")
    if q == 1.0:
        raise ValueError("q = 1 is the undeformed algebra; use the classical limit checks")


class UqSu2Rep:
    """H, X+, X- of the q-deformed su(2) relations in a weight basis.

    H = diag(h) is kept as its weight vector ``h``.  The fields are validated
    once, here: ``q`` finite, positive and not 1, ``h`` a finite 1-D vector,
    X+- finite complex matrices of side ``dim = len(h)``.  Spin-j ladders and
    their tensor products (``coproduct_rep``) share this type.
    """

    def __init__(self, q: float, h, Xp, Xm):
        _require_q(q)
        h = np.asarray(h, dtype=float)
        if h.ndim != 1 or h.size < 1 or not np.isfinite(h).all():
            raise ValueError(f"weights h must be a finite nonempty 1-D vector, got shape {h.shape}")
        self.q = q
        self.h = h
        for name, m in (("Xp", Xp), ("Xm", Xm)):
            m = as_matrix(m)
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"{name} must be {self.dim}x{self.dim}, got shape {m.shape}")
            setattr(self, name, m)
        self._letters = None  # built on first use by _letters

    @property
    def dim(self) -> int:
        return len(self.h)


def uq_su2_rep(j: float, q: float) -> UqSu2Rep:
    """Standard q-ladder construction: h = (2j..-2j) and
    X+ |j,m> = sqrt([j-m]_q [j+m+1]_q) |j,m+1>."""
    _require_q(q)
    twoj = round(2 * j)
    if abs(2 * j - twoj) > 1e-12 or j < 0:
        raise ValueError("spin must be a nonnegative half-integer")
    d = twoj + 1
    m = np.array([j - i for i in range(d)])
    Xp = np.zeros((d, d), dtype=complex)
    for i in range(1, d):
        Xp[i - 1, i] = math.sqrt(q_number(j - m[i], q) * q_number(j + m[i] + 1, q))
    return UqSu2Rep(q=q, h=2.0 * m, Xp=Xp, Xm=Xp.T.conj())


def relations_residual(rep: UqSu2Rep) -> float:
    """Sup-norm defect of [H,X+-] = +-2 X+- and [X+,X-] = (q^H - q^-H)/(q - q^-1).
    H X and X H scale rows and columns; q^(+-H) is a diagonal to subtract,
    times the reciprocal of q - 1/q: the bits of a complex division by it."""
    q, h, Xp, Xm = rep.q, rep.h, rep.Xp, rep.Xm
    r1 = sup_norm(h[:, None] * Xp - Xp * h - 2.0 * Xp)
    r2 = sup_norm(h[:, None] * Xm - Xm * h + 2.0 * Xm)
    defect = Xp @ Xm - Xm @ Xp
    defect.flat[::rep.dim + 1] -= (q ** h - q ** -h) * (1.0 / (q - 1.0 / q))
    return worst_of(r1, r2, sup_norm(defect))


# The coproduct of U_q(su2), written only here, as (left, right) letter pairs:
# Delta(X+-) = X+- x K + K^-1 x X+-, K = q^(H/2).  H is primitive,
# Delta(H) = H x 1 + 1 x H, so coproduct_rep adds the weights.
DELTA = {"Xp": (("Xp", "K"), ("Kinv", "Xp")), "Xm": (("Xm", "K"), ("Kinv", "Xm"))}
_sum = functools.partial(functools.reduce, np.add)  # a sum not started from 0


def _letters(rep: UqSu2Rep) -> dict:
    """X+-, K and K^-1 in rep as matrices, built once per rep: K = q^(H/2)
    and K^-1 = q^(-H/2) are diagonal."""
    if not rep._letters:
        rep._letters = {"Xp": rep.Xp, "Xm": rep.Xm, "K": np.diag(rep.q ** (0.5 * rep.h)),
                        "Kinv": np.diag(rep.q ** (-0.5 * rep.h))}
    return rep._letters


def _antipode(rep: UqSu2Rep) -> dict:
    """S of each letter in rep: S(X+-) = -q^(+-1) X+-, S(K) = 1/K, S(K^-1) = K."""
    q, x = rep.q, _letters(rep)
    return {"Xp": -q * x["Xp"], "Xm": -(1.0 / q) * x["Xm"],
            "K": np.diag(1.0 / x["K"].diagonal()), "Kinv": x["K"]}


def coproduct_rep(rep: UqSu2Rep, right: UqSu2Rep | None = None) -> UqSu2Rep:
    """``DELTA`` on rep x right (the tensor square of rep when right is
    omitted): the representation on the tensor product, in the product
    weight basis."""
    right = rep if right is None else right
    if right.q != rep.q:
        raise ValueError(f"tensor legs need one deformation parameter, got {rep.q} and {right.q}")
    a_of, b_of = _letters(rep), _letters(right)
    Xp, Xm = (_sum([kron(a_of[a], b_of[b]) for a, b in DELTA[x]]) for x in ("Xp", "Xm"))
    return UqSu2Rep(q=rep.q, h=(rep.h[:, None] + right.h).ravel(), Xp=Xp, Xm=Xm)


def coassociativity_residual(rep: UqSu2Rep, square: UqSu2Rep) -> float:
    """Max defect of (Delta x id)Delta = (id x Delta)Delta on H, X+, X-, given
    the square Delta(rep) = ``coproduct_rep(rep)``: both sides apply
    ``coproduct_rep`` again, so K on a tensor leg is that leg's."""
    lhs, rhs = coproduct_rep(square, rep), coproduct_rep(rep, square)
    return worst_of(sup_norm(lhs.h - rhs.h), sup_norm(lhs.Xp - rhs.Xp),
                    sup_norm(lhs.Xm - rhs.Xm))


def counit_antipode_residuals(rep: UqSu2Rep) -> dict:
    """Residuals of the counit axiom (eps x id)Delta = id and the antipode
    axiom m(S x id)Delta = unit * eps = m(id x S)Delta, in the representation.

    Counit: eps(H) = eps(X+-) = 0, eps(K^(+-1)) = 1 is the spin-0 representation,
    so (eps x id)Delta and (id x eps)Delta are the coproduct with it on one leg.
    Antipode: the sums of S(a) b and of a S(b) over the pairs (a, b) of
    ``DELTA``.  On H the axiom -H + H = 0 holds by construction: no residual.
    """
    res = {}
    counit = uq_su2_rep(0.0, rep.q)
    left, right = coproduct_rep(counit, rep), coproduct_rep(rep, counit)
    for key in ("h", "Xp", "Xm"):
        target = getattr(rep, key)
        res[f"counit_{key}"] = worst_of(sup_norm(getattr(left, key) - target),
                                        sup_norm(getattr(right, key) - target))
    x_of, s_of = _letters(rep), _antipode(rep)
    for x, pairs in DELTA.items():
        res[f"antipode_{x}_left"] = sup_norm(_sum([s_of[a] @ x_of[b] for a, b in pairs]))
        res[f"antipode_{x}_right"] = sup_norm(_sum([x_of[a] @ s_of[b] for a, b in pairs]))
    return res


def antipode_convention_solve(q: float) -> tuple[float, float]:
    """Solve m(S x id)Delta(X+-) = 0 for S(X+-) = c+- X+- on the spin-1/2
    representation; returns (c+, c-), expected (-q, -1/q).  The pair of
    ``DELTA`` whose left letter is X+- gives c X+- b, the others S(a) b."""
    rep = uq_su2_rep(0.5, q)
    x_of, s_of = _letters(rep), _antipode(rep)
    cs = []
    for x, pairs in DELTA.items():
        unknown = _sum([x_of[a] @ x_of[b] for a, b in pairs if a == x])
        known = _sum([s_of[a] @ x_of[b] for a, b in pairs if a != x])
        # on spin 1/2 both sums hold one nonzero entry, at the same place
        cs.append(float((-known.sum() / unknown.sum()).real))
    return cs[0], cs[1]


# ---------------------------------------------------------------------------
# Planck-scale grid operators
# ---------------------------------------------------------------------------

class GridOperatorPair:
    """Position X (diagonal) and deformed momentum P = -i hbar f(X) D with
    f(x) = 1 - exp(-x/l) on a uniform grid over [-L, L].  D is the central
    9-point stencil, ``CENTRAL_STENCILS[1, 8]``, applied on the interior rows
    only."""

    def __init__(self, N: int, L: float, hbar: float, x, deform):
        self.N = N
        self.L = L
        self.hbar = hbar
        self.x = x
        self.deform = deform  # diagonal of 1 - exp(-x/l)

    def interior(self) -> slice:
        return slice(self.N // 4, 3 * self.N // 4)

    def derivative(self, psi: np.ndarray) -> np.ndarray:
        """D psi on the interior rows, the grid on the last axis of psi."""
        inner = self.interior()
        offsets = CENTRAL_STENCILS[1, 8][0]
        shifted = (psi[..., inner.start + off:inner.stop + off] for off in offsets)
        return stencil_sum(shifted, self.x[1] - self.x[0], 1, 8)

    def commutator(self, psi: np.ndarray) -> np.ndarray:
        """[X, P] psi / (i hbar) = f D (X psi) - X f D psi on the interior rows:
        real, as P / (-i hbar) = f(X) D is, so residuals take |hbar| last."""
        d_psi, d_xpsi = self.derivative(np.stack((psi, self.x * psi)))
        f = self.deform[self.interior()]
        return f * d_xpsi - self.x[self.interior()] * (f * d_psi)


def planck_scale_ops(N: int = 256, L: float = 5.0, hbar: float = 1.0,
                     l: float = 2.0) -> GridOperatorPair:
    if N < 64:
        raise ValueError("grid needs at least 64 points")
    if not (math.isfinite(hbar) and hbar != 0.0):
        raise ValueError("hbar must be finite and nonzero: at hbar = 0 both residuals vanish")
    if not (math.isfinite(l) and l > 0.0):
        raise ValueError("deformation length l must be finite and positive")
    if L / l > 700.0 or not math.isfinite(math.exp(L / l)):
        raise ValueError("exp(x/l) overflows double precision on this grid")
    x = np.linspace(-L, L, N)
    return GridOperatorPair(N=N, L=L, hbar=hbar, x=x, deform=1.0 - np.exp(-x / l))


def _gaussian_probes(x: np.ndarray, L: float) -> np.ndarray:
    centers = np.array([-0.3 * L, 0.0, 0.25 * L])[:, None]
    width = L / 6.0
    return np.exp(-((x - centers) ** 2) / (2.0 * width ** 2))


def planck_commutator_residual(ops: GridOperatorPair) -> float:
    """Defect of [X, P] = i hbar (1 - exp(-X/l)) acting on smooth probes.
    [X, D] is banded, so the identity holds in the operator-consistency
    sense: it is measured on Gaussian grid functions over the interior rows."""
    inner = ops.interior()
    psi = _gaussian_probes(ops.x, ops.L)
    return abs(ops.hbar) * sup_norm(ops.commutator(psi) - ops.deform[inner] * psi[:, inner])


def planck_coproduct_residual(ops: GridOperatorPair) -> float:
    """Defect of [Delta X, Delta P] = i hbar (1x1 - E x E), E = exp(-X/l),
    with Delta X = X x 1 + 1 x X and Delta P = P x E + 1 x P, evaluated on
    product probes psi x phi (the tensor operators factor on those).  Only
    the interior block of each outer product is formed: every entry there
    is the same product as in the full grid."""
    inner = ops.interior()
    grid = _gaussian_probes(ops.x, ops.L)
    # per probe, on the interior: psi, [X,P] psi / (i hbar) and E psi
    on_inner = grid[:, inner]
    probes = list(zip(on_inner, ops.commutator(grid), (1.0 - ops.deform[inner]) * on_inner))
    worst = 0.0
    for psi, comm_psi, E_psi in probes:
        for phi, comm_phi, E_phi in probes:
            # [DX, DP](psi x phi) = ([X,P] psi) x (E phi) + psi x ([X,P] phi), over i hbar
            lhs = comm_psi[:, None] * E_phi + psi[:, None] * comm_phi
            rhs = psi[:, None] * phi - E_psi[:, None] * E_phi
            worst = worst_of(worst, sup_norm(lhs - rhs))
    return abs(ops.hbar) * worst
