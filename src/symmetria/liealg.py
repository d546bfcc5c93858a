"""Exact structure-constant tables for the Galilei and Poincare algebras,
with a polynomial Poisson-bracket engine on T*R^4 that realizes the
generators as phase-space functions and re-derives the bracket tables.

Everything here is exact: the tables and realizations have integer
coefficients, and a reported zero means zero.  The polynomial engine
works over any commutative ring (``int`` or ``Fraction`` coefficients);
``poisson_bracket`` is its one bracket, the canonical one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import add
from typing import Mapping

# Phase-space variables, in storage order: x^0..x^3 then p_0..p_3.
VARIABLES = ("x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3")
NVARS = 8


class PhasePolynomial:
    """Polynomial in x^0..x^3, p_0..p_3 with exact (or ring) coefficients.

    Stored as a map from exponent multi-indices (8-tuples) to nonzero
    coefficients; the canonical form never keeps a zero term.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, object] | None = None):
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0:
                    self.terms[tuple(mono)] = self.terms.get(tuple(mono), 0) + coeff
                    if self.terms[tuple(mono)] == 0:
                        del self.terms[tuple(mono)]

    @staticmethod
    def constant(c) -> "PhasePolynomial":
        return PhasePolynomial({(0,) * NVARS: c})

    @staticmethod
    def variable(name: str, coeff=1) -> "PhasePolynomial":
        mono = [0] * NVARS
        mono[VARIABLES.index(name)] = 1
        return PhasePolynomial({tuple(mono): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhasePolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = out.get(mono, 0) + coeff
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        res = PhasePolynomial()
        res.terms = out
        return res

    def __neg__(self) -> "PhasePolynomial":
        res = PhasePolynomial()
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        return self + (-other)

    def __mul__(self, other: "PhasePolynomial") -> "PhasePolynomial":
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(map(add, m1, m2))
                s = out.get(mono, 0) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        res = PhasePolynomial()
        res.terms = out
        return res

    def scale(self, c) -> "PhasePolynomial":
        if c == 0:
            return PhasePolynomial()
        res = PhasePolynomial()
        res.terms = {m: c * v for m, v in self.terms.items()}
        return res

    def derivative(self, var: int) -> "PhasePolynomial":
        out = {}
        for mono, coeff in self.terms.items():
            e = mono[var]
            if e == 0:
                continue
            reduced = list(mono)
            reduced[var] = e - 1
            out[tuple(reduced)] = coeff * e
        res = PhasePolynomial()
        res.terms = out
        return res

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            factors = [f"{VARIABLES[i]}^{e}" if e > 1 else VARIABLES[i]
                       for i, e in enumerate(mono) if e]
            parts.append(f"{coeff}*" + "*".join(factors) if factors else f"{coeff}")
        return " + ".join(parts)


def x(i: int) -> PhasePolynomial:
    return PhasePolynomial.variable(f"x{i}")


def p(i: int) -> PhasePolynomial:
    return PhasePolynomial.variable(f"p{i}")


def poisson_bracket(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    """Canonical bracket sum_mu (df/dx^mu dg/dp_mu - df/dp_mu dg/dx^mu)."""
    out = PhasePolynomial()
    for mu in range(4):
        out = out + (f.derivative(mu) * g.derivative(mu + 4)
                     - f.derivative(mu + 4) * g.derivative(mu))
    return out


def levi_civita(*idx: int) -> int:
    """Levi-Civita symbol: the sign of the permutation that sorts `idx`,
    0 if an index repeats; eps(1,2,3) = eps(0,1,2,3) = +1."""
    if len(set(idx)) < len(idx):
        return 0
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class LieStructure:
    """Bracket table {X_a, X_b} = sum_e c[a][b][e] X_e with exact constants."""

    name: str
    basis_labels: tuple[str, ...]
    constants: dict = field(repr=False)

    def bracket(self, a: str, b: str) -> dict[str, int]:
        return dict(self.constants.get((a, b), {}))

    def dimension(self) -> int:
        return len(self.basis_labels)


def _table_from_pairs(pairs: dict[tuple[str, str], dict[str, int]]) -> dict:
    """Antisymmetric completion of a bracket specification."""
    table = {}
    for (a, b), out in pairs.items():
        table[(a, b)] = dict(out)
        table[(b, a)] = {g: -c for g, c in out.items()}
    return table


def galilei_structure() -> LieStructure:
    """Rotations M, translations P, boosts G, time translation H.

    {M_a,M_b} = eps_abg M_g, {M_a,P_b} = eps_abg P_g, {M_a,G_b} = eps_abg G_g,
    {H,G_a} = -P_a, all remaining brackets zero.
    """
    labels = ("M1", "M2", "M3", "P1", "P2", "P3", "G1", "G2", "G3", "H")
    pairs = {("H", f"G{a}"): {f"P{a}": -1} for a in range(1, 4)}
    for a, b, g in itertools.permutations(range(1, 4)):
        for X in "MPG":
            pairs[(f"M{a}", f"{X}{b}")] = {f"{X}{g}": levi_civita(a, b, g)}
    return LieStructure("galilei", labels, _table_from_pairs(pairs))


def poincare_structure() -> LieStructure:
    """Rotations J, translations P, boosts K, time translation H.

    {K_j,P_k} = delta_jk H, {K_j,H} = P_j, {K_j,K_k} = -eps_jkl J_l,
    {J_j,K_k} = eps_jkl K_l, {J_j,P_k} = eps_jkl P_l, {J_j,J_k} = eps_jkl J_l.
    """
    labels = ("J1", "J2", "J3", "P1", "P2", "P3", "K1", "K2", "K3", "H")
    pairs = {}
    for j in range(1, 4):
        pairs[(f"K{j}", f"P{j}")] = {"H": 1}
        pairs[(f"K{j}", "H")] = {f"P{j}": 1}
    for j, k, l in itertools.permutations(range(1, 4)):
        s = levi_civita(j, k, l)
        for X in "JPK":
            pairs[(f"J{j}", f"{X}{k}")] = {f"{X}{l}": s}
        pairs[(f"K{j}", f"K{k}")] = {f"J{l}": -s}
    return LieStructure("poincare", labels, _table_from_pairs(pairs))


def check_structure(structure: LieStructure) -> tuple[list, list]:
    """Antisymmetry and Jacobi identity, verified exactly.

    Returns the pairs (a, b) where {X_a, X_b} != -{X_b, X_a}, in basis
    order, and the sorted triples (a, b, e) whose cyclic sum
    {{X_a, X_b}, X_e} + {{X_b, X_e}, X_a} + {{X_e, X_a}, X_b} is nonzero;
    two empty lists certify the table.  The tables are sparse, so the
    cyclic sum is composed bracket-by-bracket rather than through the
    dense rank-3 array.
    """
    labels = structure.basis_labels
    table = structure.constants
    empty: dict = {}

    bad_pairs = [(a, b) for a in labels for b in labels
                 if {g: -c for g, c in table.get((b, a), empty).items()}
                 != table.get((a, b), empty)]

    def add_to(out: dict, g: str, coeff) -> None:
        s = out.get(g, 0) + coeff
        if s == 0:
            out.pop(g, None)
        else:
            out[g] = s

    def bracket_with(combo: dict, e: str, total: dict) -> None:
        # adds {sum_d combo[d] X_d, X_e} to the sparse coefficient map total
        for d, coeff in combo.items():
            for g, c2 in table.get((d, e), empty).items():
                add_to(total, g, coeff * c2)

    bad_triples = []
    for a, b, e in itertools.product(labels, repeat=3):
        total: dict = {}
        bracket_with(table.get((a, b), empty), e, total)
        bracket_with(table.get((b, e), empty), a, total)
        bracket_with(table.get((e, a), empty), b, total)
        if total:
            bad_triples.append((a, b, e))
    return bad_pairs, sorted(bad_triples)


@dataclass(frozen=True)
class Realization:
    """Assignment of one phase-space polynomial to every generator."""

    assignment: dict


class IncompleteRealizationError(ValueError):
    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(f"realization missing generators: {', '.join(self.missing)}")


def _angular_momentum(a: int) -> PhasePolynomial:
    """eps_abg x^b p_g, the rotation generator about axis a."""
    b, g = (i for i in range(1, 4) if i != a)
    return (x(b) * p(g) - x(g) * p(b)).scale(levi_civita(a, b, g))


def galilei_realization() -> Realization:
    """M_a = eps_abg x^b p_g, P_a = p_a, G_a = x^0 p_a, H = p_0."""
    asn = {"H": p(0)}
    for a in range(1, 4):
        asn[f"P{a}"] = p(a)
        asn[f"G{a}"] = x(0) * p(a)
        asn[f"M{a}"] = _angular_momentum(a)
    return Realization(asn)


def poincare_realization() -> Realization:
    """J_j = eps_jkl x^k p_l, P_j = p_j, K_j = p_0 x^j + x^0 p_j, H = p_0.

    Signs fixed so that {K_j,P_k} = delta_jk H and {K_j,H} = P_j come out of
    the canonical bracket; ``verify_realization`` certifies the full table.
    """
    asn = {"H": p(0)}
    for j in range(1, 4):
        asn[f"P{j}"] = p(j)
        asn[f"K{j}"] = p(0) * x(j) + x(0) * p(j)
        asn[f"J{j}"] = _angular_momentum(j)
    return Realization(asn)


def verify_realization(structure: LieStructure, realization: Realization) -> list:
    """Exact check that the realized brackets reproduce the table.

    Returns the mismatches (a, b, {X_a, X_b} - sum_g c_abg X_g) in basis
    order; an empty list certifies the realization.  A realization that
    leaves a generator out raises ``IncompleteRealizationError``."""
    missing = [lab for lab in structure.basis_labels if lab not in realization.assignment]
    if missing:
        raise IncompleteRealizationError(missing)
    asn = realization.assignment
    mismatches = []
    for a in structure.basis_labels:
        for b in structure.basis_labels:
            diff = poisson_bracket(asn[a], asn[b])
            for g, coeff in structure.bracket(a, b).items():
                diff = diff - asn[g].scale(coeff)
            if diff:
                mismatches.append((a, b, diff))
    return mismatches


def structure_to_json(structure: LieStructure) -> dict:
    """Serializable table: {basis: [...], brackets: [{a, b, out: [...]}]}."""
    brackets = []
    for a in structure.basis_labels:
        for b in structure.basis_labels:
            out = structure.bracket(a, b)
            if out:
                brackets.append({
                    "a": a,
                    "b": b,
                    "out": [{"gen": g, "coeff": str(out[g])} for g in sorted(out)],
                })
    return {"basis": list(structure.basis_labels), "brackets": brackets}
