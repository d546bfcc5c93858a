"""Exact structure-constant tables of the Galilei and Poincare algebras, and
their generators as quadratic functions on phase space T*R^4.

A table is one int64 array C with {X_a, X_b} = sum_e C[a, b, e] X_e.  A
generator f = 1/2 w^T Q w, w = (x^0..x^3, p_0..p_3, 1), is its symmetric
integer 9x9 matrix Q, with an even diagonal for integer coefficients.  As
the gradient of f in (x, p) is the top of Q w, the canonical bracket is
w^T Qf J_HAT Qg w, J_HAT the symplectic matrix bordered by zeros:
poisson_bracket(Qf, Qg) = Qf J_HAT Qg - Qg J_HAT Qf, symmetric and integer
again (inhomogeneous quadratics close into sp(8) and the Heisenberg
algebra; Arnold, Mathematical Methods of Classical Mechanics).
"""

from __future__ import annotations

import itertools

import numpy as np

# Phase-space variables in the order of w, then the index of its constant 1.
VARIABLES = ("x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3")
ONE = 8

# J = [[0, I], [-I, 0]] on (x, p), bordered by a zero row and column.
J_HAT = np.pad(np.kron([[0, 1], [-1, 0]], np.eye(4, dtype=np.int64)), (0, 1))

# Largest |entry| B of a table or a generator matrix.  With n labels every
# int64 sum stays below 2**63: a Jacobi sum is at most 3*n*B**2 and a
# realization sum at most (18 + n)*B**2, for any n < 2**21.
ENTRY_BOUND = 2 ** 20


def levi_civita(*idx: int) -> int:
    """Levi-Civita symbol: the sign of the permutation that sorts `idx`,
    0 if an index repeats; eps(1,2,3) = eps(0,1,2,3) = +1."""
    if len(set(idx)) < len(idx):
        return 0
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    return -1 if inversions % 2 else 1


def poisson_bracket(Qf, Qg) -> np.ndarray:
    """Matrix of {f, g}, Qf J_HAT Qg - Qg J_HAT Qf = M + M^T for M = Qf J_HAT Qg
    as both are symmetric; stacks of generator matrices broadcast as in matmul."""
    M = Qf @ J_HAT @ Qg
    return M + np.swapaxes(M, -1, -2)


def format_quadratic(Q) -> str:
    """1/2 w^T Q w as "coeff*var*var" terms joined by " + ", in ascending
    order of exponent tuples over VARIABLES: "2*p3", "-1*x1^2 + 1*x0*p1"."""
    terms = []
    for i, j in zip(*np.nonzero(np.triu(Q))):
        exponents = tuple(np.bincount((i, j), minlength=9)[:ONE].tolist())
        factors = "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(VARIABLES, exponents) if e)
        coeff = int(Q[i, j]) // 2 if i == j else int(Q[i, j])
        terms.append((exponents, f"{coeff}*{factors}" if factors else f"{coeff}"))
    return " + ".join(text for _, text in sorted(terms)) or "0"


def _checked(a, shape: tuple, generators: bool = False) -> np.ndarray:
    """`a` as int64; ValueError unless it is an integer array of `shape` within
    ENTRY_BOUND and, for generator matrices, symmetric with an even diagonal."""
    a = np.asarray(a)
    if (a.dtype.kind not in "iu" or a.shape != shape
            or a.size and (a.min() < -ENTRY_BOUND or a.max() > ENTRY_BOUND)
            or generators and ((a != np.swapaxes(a, -1, -2)).any()
                               or (np.diagonal(a, axis1=-2, axis2=-1) % 2).any())):
        raise ValueError(f"expected integers of magnitude at most {ENTRY_BOUND} in shape {shape}"
                         + (", each 9x9 symmetric with an even diagonal" if generators else ""))
    return a.astype(np.int64)


class LieStructure:
    """Bracket table {X_a, X_b} = sum_e constants[a, b, e] X_e, (n, n, n) int64."""

    def __init__(self, name: str, basis_labels: tuple[str, ...], constants: np.ndarray):
        self.name = name
        self.basis_labels = basis_labels
        self.constants = constants

    def dimension(self) -> int:
        return len(self.basis_labels)


def _structure(name: str, labels: tuple, pairs: dict) -> LieStructure:
    """Table of a spec {(a, b): {e: c}}, completed by {X_b, X_a} = -{X_a, X_b}."""
    index = {lab: i for i, lab in enumerate(labels)}
    C = np.zeros((len(labels),) * 3, dtype=np.int64)
    for (a, b), out in pairs.items():
        for e, c in out.items():
            C[index[a], index[b], index[e]], C[index[b], index[a], index[e]] = c, -c
    return LieStructure(name, labels, C)


def galilei_structure() -> LieStructure:
    """Rotations M, translations P, boosts G, time translation H:
    {M_a,M_b} = eps_abg M_g, {M_a,P_b} = eps_abg P_g, {M_a,G_b} = eps_abg G_g,
    {H,G_a} = -P_a, all remaining brackets zero."""
    labels = ("M1", "M2", "M3", "P1", "P2", "P3", "G1", "G2", "G3", "H")
    pairs = {("H", f"G{a}"): {f"P{a}": -1} for a in range(1, 4)}
    for a, b, g in itertools.permutations(range(1, 4)):
        for X in "MPG":
            pairs[(f"M{a}", f"{X}{b}")] = {f"{X}{g}": levi_civita(a, b, g)}
    return _structure("galilei", labels, pairs)


def poincare_structure() -> LieStructure:
    """Rotations J, translations P, boosts K, time translation H:
    {K_j,P_k} = delta_jk H, {K_j,H} = P_j, {K_j,K_k} = -eps_jkl J_l,
    {J_j,K_k} = eps_jkl K_l, {J_j,P_k} = eps_jkl P_l, {J_j,J_k} = eps_jkl J_l."""
    labels = ("J1", "J2", "J3", "P1", "P2", "P3", "K1", "K2", "K3", "H")
    pairs = {(f"K{j}", f"P{j}"): {"H": 1} for j in range(1, 4)}
    pairs |= {(f"K{j}", "H"): {f"P{j}": 1} for j in range(1, 4)}
    for j, k, l in itertools.permutations(range(1, 4)):
        s = levi_civita(j, k, l)
        for X in "JPK":
            pairs[(f"J{j}", f"{X}{k}")] = {f"{X}{l}": s}
        pairs[(f"K{j}", f"K{k}")] = {f"J{l}": -s}
    return _structure("poincare", labels, pairs)


def check_structure(structure: LieStructure) -> tuple[list, list]:
    """Antisymmetry and Jacobi identity, verified exactly: the pairs (a, b)
    with {X_a, X_b} != -{X_b, X_a}, in basis order, and the triples
    (a, b, e), sorted by label, whose cyclic sum {{X_a, X_b}, X_e} + ... is
    nonzero.  Two empty lists certify the table."""
    labels = structure.basis_labels
    C = _checked(structure.constants, (len(labels),) * 3)
    bad_pairs = [(labels[a], labels[b])
                 for a, b in np.argwhere((C + C.transpose(1, 0, 2)).any(-1))]
    T = np.einsum("abd,def->abef", C, C)  # T[a, b, e] = {{X_a, X_b}, X_e}
    cyclic = T + T.transpose(1, 2, 0, 3) + T.transpose(2, 0, 1, 3)
    return bad_pairs, sorted((labels[a], labels[b], labels[e])
                             for a, b, e in np.argwhere(cyclic.any(-1)))


class IncompleteRealizationError(ValueError):
    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(f"realization missing generators: {', '.join(self.missing)}")


def _generator(*terms: tuple) -> np.ndarray:
    """Q of sum c * w_i * w_j over the (c, i, j) terms."""
    Q = np.zeros((9, 9), dtype=np.int64)
    for c, i, j in terms:
        Q[i, j] += c
        Q[j, i] += c
    return Q


def _phase_space(rotation: str, boost: str, boost_terms) -> dict[str, np.ndarray]:
    """H = p_0 and, for a = 1, 2, 3, P_a = p_a, the rotation generator
    eps_abg x^b p_g about axis a, and the boost with terms boost_terms(a)."""
    gens = {"H": _generator((1, 4, ONE))}
    for a in range(1, 4):
        b, g = (i for i in range(1, 4) if i != a)
        s = levi_civita(a, b, g)
        gens[f"{rotation}{a}"] = _generator((s, b, 4 + g), (-s, g, 4 + b))
        gens[f"P{a}"] = _generator((1, 4 + a, ONE))
        gens[f"{boost}{a}"] = _generator(*boost_terms(a))
    return gens


def galilei_realization() -> dict[str, np.ndarray]:
    """M_a = eps_abg x^b p_g, P_a = p_a, G_a = x^0 p_a, H = p_0."""
    return _phase_space("M", "G", lambda a: [(1, 0, 4 + a)])


def poincare_realization() -> dict[str, np.ndarray]:
    """J_j = eps_jkl x^k p_l, P_j = p_j, K_j = p_0 x^j + x^0 p_j, H = p_0,
    with signs such that {K_j,P_k} = delta_jk H and {K_j,H} = P_j."""
    return _phase_space("J", "K", lambda j: [(1, 4, j), (1, 0, 4 + j)])


def verify_realization(structure: LieStructure, realization: dict) -> list:
    """Exact check that the realized brackets reproduce the table: the mismatches
    (a, b, D) in basis order, D the matrix of {X_a, X_b} - sum_e C[a, b, e] X_e;
    [] certifies it.  A missing generator raises ``IncompleteRealizationError``."""
    labels = structure.basis_labels
    if missing := [lab for lab in labels if lab not in realization]:
        raise IncompleteRealizationError(missing)
    C = _checked(structure.constants, (len(labels),) * 3)
    Q = _checked(np.stack([realization[lab] for lab in labels]), (len(labels), 9, 9),
                 generators=True)
    diff = poisson_bracket(Q[:, None], Q[None]) - np.einsum("abe,eij->abij", C, Q)
    return [(labels[a], labels[b], diff[a, b])
            for a, b in np.argwhere(diff.any(axis=(-2, -1)))]


def structure_to_json(structure: LieStructure) -> dict:
    """Serializable table: {basis: [...], brackets: [{a, b, out: [...]}]}."""
    labels, C = structure.basis_labels, structure.constants
    return {"basis": list(labels),
            "brackets": [{"a": labels[a], "b": labels[b],
                          "out": [{"gen": labels[e], "coeff": str(C[a, b, e])}
                                  for e in sorted(np.flatnonzero(C[a, b]), key=labels.__getitem__)]}
                         for a, b in np.argwhere(C.any(-1))]}
