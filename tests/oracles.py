"""Slow independent oracles used to fix expected values in the tests.

These deliberately avoid the code paths under test: elliptic values come
from quadrature of the defining integral plus root-finding (or mpmath's
theta-based routines), Legendre values from explicit closed forms,
solid harmonics from the spherical form r^n e^{i h phi} P_{n,h}(z/r) with
a scalar associated Legendre recurrence, integrals from dense trapezoid
sums, finite differences from one field call per stencil node, and
curvature from index loops over hand-written central differences.  The
quadratic Poisson brackets, and the canonical bracket of phase-space
generators, are checked by their values at points, not by their
coefficient tensors or matrices; the reduced Jacobi defect is checked
against the full 4,096-coefficient array, summed over every triple and every ordering of each monomial.
The Yang-Baxter and exchange-relation product tables are checked against
dense defects: every operator placed on its legs by Kronecker products of
its product-basis expansion, and every product formed one pair of
matrices at a time.
The cube is a hand-written polyhedral graph for the fullerene tests, the
ring order of a polyhedron's faces comes from a Python sort of one ring at
a time, and the Yang-Baxter sweep pairs come from the scalar loop that
drew them one pair at a time.
"""

import cmath
import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from symmetria.fullerene import PolyhedralGraph
from symmetria.numerics import CENTRAL_STENCILS


def elliptic_K(k: float) -> float:
    """Defining integral of the complete elliptic integral, by quadrature."""
    val, _ = quad(lambda th: 1.0 / math.sqrt(1.0 - (k * math.sin(th)) ** 2),
                  0.0, math.pi / 2.0, epsabs=1e-13, epsrel=1e-13)
    return val


def incomplete_F(phi: float, k: float) -> float:
    val, _ = quad(lambda th: 1.0 / math.sqrt(1.0 - (k * math.sin(th)) ** 2),
                  0.0, phi, epsabs=1e-13, epsrel=1e-13)
    return val


def sn_cn_dn_by_inversion(u: float, k: float):
    """Invert u = F(phi, k) by bisection for u in (0, K); sn = sin(phi)."""
    if not 0.0 < u < elliptic_K(k):
        raise ValueError("oracle restricted to the fundamental quarter period")
    phi = brentq(lambda p: incomplete_F(p, k) - u, 0.0, math.pi / 2.0, xtol=1e-15)
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt(1.0 - (k * sn) ** 2)
    return sn, cn, dn


def trapezoid_integral(f, a: float, b: float, n: int = 100_001) -> complex:
    t = np.linspace(a, b, n)
    vals = np.array([f(float(ti)) for ti in t])
    return complex(np.trapezoid(vals, t))


def legendre_closed_form(n: int, h: int, x: float) -> float:
    """Explicit associated Legendre polynomials for the degrees under test
    (Condon-Shortley phase)."""
    s = math.sqrt(max(0.0, 1.0 - x * x))
    table = {
        (0, 0): 1.0,
        (1, 0): x,
        (1, 1): -s,
        (2, 0): 0.5 * (3 * x * x - 1),
        (2, 1): -3.0 * x * s,
        (2, 2): 3.0 * (1 - x * x),
        (3, 0): 0.5 * (5 * x ** 3 - 3 * x),
        (3, 2): 15.0 * x * (1 - x * x),
        (4, 3): -105.0 * x * s ** 3,
    }
    return table[(n, h)]


def legendre(n: int, h: int, xval: float) -> float:
    """Associated Legendre P_{n,h}(x) by the stable upward recurrence,
    Condon-Shortley phase included."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if abs(h) > n:
        raise ValueError(f"order |h| = {abs(h)} exceeds degree {n}")
    if not -1.0 <= xval <= 1.0:
        raise ValueError("argument must lie in [-1, 1]")
    m = abs(h)
    # seed: P_m^m, then P_{m+1}^m, then the three-term recurrence in degree
    pmm = 1.0
    if m > 0:
        s = math.sqrt(max(0.0, 1.0 - xval * xval))
        fact = 1.0
        for _ in range(m):
            pmm *= -fact * s
            fact += 2.0
    if n == m:
        out = pmm
    else:
        pm1 = xval * (2 * m + 1) * pmm
        if n == m + 1:
            out = pm1
        else:
            for ell in range(m + 2, n + 1):
                pmm, pm1 = pm1, (xval * (2 * ell - 1) * pm1 - (ell + m - 1) * pmm) / (ell - m)
            out = pm1
    if h < 0:
        out *= (-1) ** m * math.factorial(n - m) / math.factorial(n + m)
    return out


def solid_harmonic_spherical(n: int, h: int, point) -> complex:
    """r^n e^{i h phi} P_{n,h}(cos theta) at one point through its polar
    angles; sqrt(1 - (z/r)^2) cancels near the z axis."""
    xv, yv, zv = (float(c) for c in point)
    r = math.sqrt(xv * xv + yv * yv + zv * zv)
    if r == 0.0:
        return complex(1.0 if n == 0 else 0.0)
    phi = math.atan2(yv, xv)
    return r ** n * cmath.exp(1j * h * phi) * legendre(n, h, zv / r)


def fd_partial_by_nodes(f, point, axis: int, stencil, deriv: int = 1):
    """The deriv-th partial of ``f`` along ``axis`` at ``point`` from one call
    of ``f`` per node of the CENTRAL_STENCILS entry, the terms summed in
    table order; ``point`` may be an (n, M) array and ``f`` may return
    arrays.  The centre node is ``point`` as given, a -0.0 coordinate
    included."""
    offsets, weights, divisor = CENTRAL_STENCILS[deriv, stencil.order]
    p = np.asarray(point, dtype=float)
    total = None
    for off, w in zip(offsets, weights):
        q = p.copy()
        if off:
            q[axis] += off * stencil.step
        term = w * f(q)
        total = term if total is None else total + term
    for _ in range(deriv):
        divisor *= stencil.step
    return total / divisor


def riemann_sup_by_index_loops(omega, xv, h: float) -> float:
    """Max |R^a_bcd| of g = omega^2 diag(-1, 1, 1, 1) at xv: Christoffel
    symbols and the Riemann tensor written out index by index, every
    derivative a central difference (f(x + h e) - f(x - h e)) / 2h."""
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])

    def metric(yv):
        w = omega(yv)
        return (w * w) * eta

    def christoffel(yv):
        dg = np.zeros((4, 4, 4))  # dg[c, a, b] = d_c g_ab
        for c in range(4):
            e = np.zeros(4)
            e[c] = h
            dg[c] = (metric(yv + e) - metric(yv - e)) / (2.0 * h)
        ginv = np.linalg.inv(metric(yv))
        gam = np.zeros((4, 4, 4))  # gam[a, b, c] = Gamma^a_bc
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    s = 0.0
                    for d in range(4):
                        s += ginv[a, d] * (dg[b, d, c] + dg[c, b, d] - dg[d, b, c])
                    gam[a, b, c] = 0.5 * s
        return gam

    xv = np.asarray(xv, dtype=float)
    dgam = np.zeros((4, 4, 4, 4))  # dgam[c, a, d, b] = d_c Gamma^a_db
    for c in range(4):
        e = np.zeros(4)
        e[c] = h
        dgam[c] = (christoffel(xv + e) - christoffel(xv - e)) / (2.0 * h)
    gam0 = christoffel(xv)
    worst = 0.0
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for d in range(4):
                    val = dgam[c, a, d, b] - dgam[d, a, c, b]
                    for e_ in range(4):
                        val += gam0[a, c, e_] * gam0[e_, d, b] - gam0[a, d, e_] * gam0[e_, c, b]
                    worst = max(worst, abs(val))
    return worst


def quadratic_jacobi_holds_on_grid(C) -> bool:
    """Whether {x_i, {x_j, x_k}} + cyclic vanishes for every triple under the
    quadratic bracket {x_k, x_l} = sum_ij C[k, l, i, j] x_i x_j, decided from
    values at the 256 points of {0, 1, 2, 3}^4.  Gradients are integer
    central differences, exact for a quadratic; a cubic in four variables
    that vanishes on that grid is zero."""
    C = np.asarray(C, dtype=np.int64)
    grid = np.array(list(itertools.product(range(4), repeat=4)), dtype=np.int64)

    def brackets(pts):
        # {x_k, x_l} at each point: shape (n, 4, 4)
        return np.einsum("ni,klij,nj->nkl", pts, C, pts)

    B = brackets(grid)
    grad = np.empty((len(grid), 4, 4, 4), dtype=np.int64)  # [n, j, k, l] = d_l {x_j, x_k}
    for l, e in enumerate(np.eye(4, dtype=np.int64)):
        diff = brackets(grid + e) - brackets(grid - e)
        assert not (diff % 2).any()
        grad[..., l] = diff // 2
    for i, j, k in itertools.product(range(4), repeat=3):
        # {x_a, g} = sum_l {x_a, x_l} d_l g
        total = sum((B[:, a, :] * grad[:, b, c, :]).sum(axis=-1)
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))
        if total.any():
            return False
    return True


# Number of distinct orderings of (m, n, p) for m <= n <= p, zero otherwise
_ORDERINGS = np.array([[[len(set(itertools.permutations((m, n, q)))) if m <= n <= q else 0
                         for q in range(4)] for n in range(4)] for m in range(4)], dtype=np.int64)


def full_jacobi_defect(C) -> np.ndarray:
    """D[i, j, k, m, n, p]: the coefficient of x_m x_n x_p (m <= n <= p,
    zero elsewhere) in {x_i, {x_j, x_k}} + cyclic for the bracket
    {x_k, x_l} = sum_ij C[k, l, i, j] x_i x_j, for every (i, j, k).  One
    einsum over all triples, symmetrized over all six orderings of the
    monomial, then scaled by its number of distinct orderings over 6."""
    C = np.asarray(C, dtype=np.int64)
    G = C + C.swapaxes(-1, -2)
    T = np.einsum("ilmn,jklp->ijkmnp", C, G)
    cyclic = T + T.transpose(2, 0, 1, 3, 4, 5) + T.transpose(1, 2, 0, 3, 4, 5)
    sym = sum(cyclic.transpose(0, 1, 2, *(3 + q for q in perm))
              for perm in itertools.permutations(range(3)))
    return sym * _ORDERINGS // 6


def canonical_bracket_matches_at_points(Qf, Qg, R, rng, points: int = 30) -> bool:
    """Whether 1/2 w^T R w equals the canonical bracket
    sum_mu (df/dx^mu dg/dp_mu - df/dp_mu dg/dx^mu) of f = 1/2 w^T Qf w and
    g = 1/2 w^T Qg w at random integer points z, w = (z, 1).  Values are
    doubled to stay integer, and each gradient is an integer central
    difference of values, exact for a quadratic."""
    def doubled(Q, z):
        w = np.append(z, 1)
        return int(w @ np.asarray(Q, dtype=np.int64) @ w)

    def doubled_gradient(Q, z):
        # 2 df/dz_k = (2f(z + e_k) - 2f(z - e_k)) / 2
        return [(doubled(Q, z + e) - doubled(Q, z - e)) // 2 for e in np.eye(8, dtype=np.int64)]

    for z in rng.integers(-5, 6, size=(points, 8)):
        df, dg = doubled_gradient(Qf, z), doubled_gradient(Qg, z)
        four_bracket = sum(df[mu] * dg[4 + mu] - df[4 + mu] * dg[mu] for mu in range(4))
        if four_bracket != 2 * doubled(R, z):
            return False
    return True


PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def classical_weights(u: float, rho: float, k: float) -> tuple:
    """rho (1, dn, cn)/sn at u in the fundamental quarter period, from the
    inversion oracle."""
    sn, cn, dn = sn_cn_dn_by_inversion(u, k)
    return rho / sn, rho * dn / sn, rho * cn / sn


def sklyanin_exchange_defect(u: float, v: float, rho: float, k: float, J: dict,
                             points) -> float:
    """Max over the points S of the sup norm of
    {L'(u), L''(v)}(S) - [r(u-v), L'(u) L''(v)](S), with
    L(u) = S_0 + i sum_a w_a(u) S_a sigma_a, r = sum_a w_a sigma_a x sigma_a
    and the brackets {S_a, S_0} = 2 J_bc S_b S_c, {S_a, S_b} = -2 S_0 S_c
    over cyclic (a, b, c); J maps (a, b) with a < b to J_ab.  The bracket
    of two entries linear in S is sum_kl d_k f d_l g {S_k, S_l}."""
    wu, wv, wr = (classical_weights(t, rho, k) for t in (u, v, u - v))
    r = sum(wr[a - 1] * np.kron(PAULI[a], PAULI[a]) for a in (1, 2, 3))

    def gradient(w):
        # d L / d S_k for k = 0..3
        return [PAULI[0]] + [1j * w[a - 1] * PAULI[a] for a in (1, 2, 3)]

    du, dv = gradient(wu), gradient(wv)
    worst = 0.0
    for S in points:
        P = np.zeros((4, 4))
        for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
            jbc = J[(b, c)] if b < c else -J[(c, b)]
            P[a, 0] = 2.0 * jbc * S[b] * S[c]
            P[0, a] = -P[a, 0]
            P[a, b] = -2.0 * S[0] * S[c]
            P[b, a] = -P[a, b]
        lhs = sum(P[kk, ll] * np.kron(du[kk], dv[ll]) for kk in range(4) for ll in range(4))
        prod = np.kron(sum(S[kk] * du[kk] for kk in range(4)),
                       sum(S[kk] * dv[kk] for kk in range(4)))
        worst = max(worst, float(np.max(np.abs(lhs - (r @ prod - prod @ r)))))
    return worst


def kron_reference(m, legs, dims=(2, 2, 2)):
    """m, acting on factors legs[0] x legs[1] of a three-factor space with
    factor dimensions ``dims``: expanded in the product basis e_ij x e_kl of
    its two factors, each factor placed on its leg with plain Kronecker
    products, the identity on the third."""
    a, b = dims[legs[0]], dims[legs[1]]
    out = 0
    for i, j, k, l in itertools.product(range(a), range(a), range(b), range(b)):
        ops = [np.eye(d, dtype=complex) for d in dims]
        ops[legs[0]] = np.outer(np.eye(a)[i], np.eye(a)[j])
        ops[legs[1]] = np.outer(np.eye(b)[k], np.eye(b)[l])
        out = out + m[b * i + k, b * j + l] * np.kron(np.kron(ops[0], ops[1]), ops[2])
    return out


def dense_defects(f12, f13, f23, dims=(2, 2, 2), commutators=False) -> np.ndarray:
    """D[a, b, c], a (4, 4, 4, N, N) array, for the two-leg matrix families
    f12, f13, f23 (four matrices each, the constant then B_1..B_3) placed by
    ``kron_reference`` on the legs (0,1), (0,2), (1,2): A B C - C B A of
    A = f12[a], B = f13[b], C = f23[c], or with ``commutators`` [A, B] at
    (a, b, 0), [A, C] at (a, 0, c) and [B, C] at (0, b, c) for a, b, c >= 1
    (the constants, zero for r, are not read)."""
    A, B, C = ([kron_reference(m, legs, dims) for m in f]
               for f, legs in ((f12, (0, 1)), (f13, (0, 2)), (f23, (1, 2))))
    n = A[0].shape[0]
    D = np.zeros((4, 4, 4, n, n), dtype=complex)
    for a, b, c in itertools.product(range(4), repeat=3):
        if not commutators:
            D[a, b, c] = A[a] @ B[b] @ C[c] - C[c] @ B[b] @ A[a]
        elif (a, b, c).count(0) == 1:
            X, Y = ((A[a], B[b]) if c == 0 else (A[a], C[c]) if b == 0 else (B[b], C[c]))
            D[a, b, c] = X @ Y - Y @ X
    return D


def sweep_samples_by_scalar_loop(rng, k: float, count: int, K: float, margin: float) -> list:
    """(u, v) pairs drawn u then v, one scalar uniform at a time, kept when
    u, v and u - v all lie at least `margin` from the lattice 2K Z."""
    out = []
    while len(out) < count:
        u = float(rng.uniform(margin, 2.0 * K - margin))
        v = float(rng.uniform(margin, 2.0 * K - margin))
        good = True
        for arg in (u, v, u - v):
            d = abs(arg - 2.0 * K * round(arg / (2.0 * K)))
            if d < margin:
                good = False
                break
        if good:
            out.append((u, v))
    return out


def cube_graph() -> PolyhedralGraph:
    """The 3-cube with its 6 square faces."""
    verts = [np.array([float(x), float(y), float(z)])
             for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    idx = lambda x, y, z: 4 * x + 2 * y + z
    edges = []
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                if x == 0:
                    edges.append((idx(0, y, z), idx(1, y, z)))
                if y == 0:
                    edges.append((idx(x, 0, z), idx(x, 1, z)))
                if z == 0:
                    edges.append((idx(x, y, 0), idx(x, y, 1)))
    faces = [
        [idx(0, 0, 0), idx(0, 0, 1), idx(0, 1, 1), idx(0, 1, 0)],
        [idx(1, 0, 0), idx(1, 0, 1), idx(1, 1, 1), idx(1, 1, 0)],
        [idx(0, 0, 0), idx(0, 0, 1), idx(1, 0, 1), idx(1, 0, 0)],
        [idx(0, 1, 0), idx(0, 1, 1), idx(1, 1, 1), idx(1, 1, 0)],
        [idx(0, 0, 0), idx(0, 1, 0), idx(1, 1, 0), idx(1, 0, 0)],
        [idx(0, 0, 1), idx(0, 1, 1), idx(1, 1, 1), idx(1, 0, 1)],
    ]
    return PolyhedralGraph(vertices=verts, edges=edges, faces=faces)


def ring_by_sorted_atan2(axis, points) -> list:
    """Indices of ``points`` sorted by angle about ``axis``, one Python sort
    of atan2 keys, in the plane spanned by the axis-orthogonal part of x (of
    y when the axis is within acos(0.9) of x) and its cross product."""
    axis = axis / np.linalg.norm(axis)
    ref = np.array([1.0, 0.0, 0.0])
    if abs(ref @ axis) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    e1 = ref - (ref @ axis) * axis
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return sorted(range(len(points)), key=lambda i: math.atan2(points[i] @ e2, points[i] @ e1))
