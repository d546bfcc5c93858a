"""Exact structure-constant tables for the Galilei and Poincare algebras,
with a polynomial Poisson-bracket engine on T*R^4 that realizes the
generators as phase-space functions and re-derives the bracket tables.

Everything here is exact: coefficients are rationals (or any commutative
ring element such as complex floats, which the Sklyanin module reuses),
and a reported zero means zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Mapping

from .numerics import worst_of
from .report import Check

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
    def zero() -> "PhasePolynomial":
        return PhasePolynomial()

    @staticmethod
    def constant(c) -> "PhasePolynomial":
        return PhasePolynomial({(0,) * NVARS: c})

    @staticmethod
    def variable(name: str, coeff=Fraction(1)) -> "PhasePolynomial":
        mono = [0] * NVARS
        mono[VARIABLES.index(name)] = 1
        return PhasePolynomial({tuple(mono): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PhasePolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

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

    def __mul__(self, other) -> "PhasePolynomial":
        if not isinstance(other, PhasePolynomial):
            return self.scale(other)
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

    __rmul__ = __mul__

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

    def max_abs_coeff(self) -> float:
        """Largest coefficient modulus as a float, NaN if any coefficient is
        NaN, 0.0 for the zero polynomial."""
        if not self.terms:
            return 0.0
        return worst_of(*(abs(c) for c in self.terms.values()))

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
        out = out + f.derivative(mu) * g.derivative(mu + 4)
        out = out - f.derivative(mu + 4) * g.derivative(mu)
    return out


EPS3 = {}
for _perm, _sign in ((("1", "2", "3"), 1), (("2", "3", "1"), 1), (("3", "1", "2"), 1),
                     (("3", "2", "1"), -1), (("1", "3", "2"), -1), (("2", "1", "3"), -1)):
    EPS3[tuple(int(s) for s in _perm)] = _sign


def epsilon3(a: int, b: int, c: int) -> int:
    """Levi-Civita symbol with indices 1..3 and eps(1,2,3) = +1."""
    return EPS3.get((a, b, c), 0)


@dataclass(frozen=True)
class LieStructure:
    """Bracket table {X_a, X_b} = sum_e c[a][b][e] X_e with exact constants."""

    name: str
    basis_labels: tuple[str, ...]
    constants: dict = field(repr=False)

    def bracket(self, a: str, b: str) -> dict[str, Fraction]:
        return dict(self.constants.get((a, b), {}))

    def dimension(self) -> int:
        return len(self.basis_labels)


def _table_from_pairs(pairs: dict[tuple[str, str], dict[str, Fraction]],
                      labels: tuple[str, ...]) -> dict:
    """Antisymmetric completion of an upper-triangle bracket specification."""
    table = {}
    for (a, b), out in pairs.items():
        table[(a, b)] = {g: Fraction(c) for g, c in out.items() if c != 0}
        table[(b, a)] = {g: -Fraction(c) for g, c in out.items() if c != 0}
    for a in labels:
        table.setdefault((a, a), {})
    return table


def galilei_structure() -> LieStructure:
    """Rotations M, translations P, boosts G, time translation H.

    {M_a,M_b} = eps_abg M_g, {M_a,P_b} = eps_abg P_g, {M_a,G_b} = eps_abg G_g,
    {H,G_a} = -P_a, all remaining brackets zero.
    """
    labels = ("M1", "M2", "M3", "P1", "P2", "P3", "G1", "G2", "G3", "H")
    pairs = {}
    for a in range(1, 4):
        for b in range(1, 4):
            if a >= b:
                continue
            g = ({1, 2, 3} - {a, b}).pop()
            s = epsilon3(a, b, g)
            pairs[(f"M{a}", f"M{b}")] = {f"M{g}": Fraction(s)}
        for b in range(1, 4):
            g = ({1, 2, 3} - {a, b}).pop() if a != b else None
            if g is not None:
                s = epsilon3(a, b, g)
                pairs[(f"M{a}", f"P{b}")] = {f"P{g}": Fraction(s)}
                pairs[(f"M{a}", f"G{b}")] = {f"G{g}": Fraction(s)}
            else:
                pairs[(f"M{a}", f"P{b}")] = {}
                pairs[(f"M{a}", f"G{b}")] = {}
    for a in range(1, 4):
        pairs[(f"H", f"G{a}")] = {f"P{a}": Fraction(-1)}
    return LieStructure("galilei", labels, _table_from_pairs(pairs, labels))


def poincare_structure() -> LieStructure:
    """Rotations J, translations P, boosts K, time translation H.

    {K_j,P_k} = delta_jk H, {K_j,H} = P_j, {K_j,K_k} = -eps_jkl J_l,
    {J_j,K_k} = eps_jkl K_l, {J_j,P_k} = eps_jkl P_l, {J_j,J_k} = eps_jkl J_l.
    """
    labels = ("J1", "J2", "J3", "P1", "P2", "P3", "K1", "K2", "K3", "H")
    pairs = {}
    for j in range(1, 4):
        for k in range(1, 4):
            if j < k:
                l = ({1, 2, 3} - {j, k}).pop()
                s = epsilon3(j, k, l)
                pairs[(f"J{j}", f"J{k}")] = {f"J{l}": Fraction(s)}
                pairs[(f"K{j}", f"K{k}")] = {f"J{l}": Fraction(-s)}
            if j != k:
                l = ({1, 2, 3} - {j, k}).pop()
                s = epsilon3(j, k, l)
                pairs[(f"J{j}", f"P{k}")] = {f"P{l}": Fraction(s)}
                pairs[(f"J{j}", f"K{k}")] = {f"K{l}": Fraction(s)}
            else:
                pairs[(f"J{j}", f"P{k}")] = {}
                pairs[(f"J{j}", f"K{k}")] = {}
        pairs[(f"K{j}", f"P{j}")] = {"H": Fraction(1)}
        pairs[(f"K{j}", "H")] = {f"P{j}": Fraction(1)}
        pairs[(f"J{j}", "H")] = {}
    return LieStructure("poincare", labels, _table_from_pairs(pairs, labels))


def check_structure(structure: LieStructure) -> list[Check]:
    """Antisymmetry and Jacobi identity, verified exactly.

    Violations become failing report entries naming the offending pair or
    triple; an empty failure list certifies the table.  The tables are
    sparse, so the cyclic sum is composed bracket-by-bracket rather than
    through the dense rank-3 array.
    """
    labels = structure.basis_labels
    table = structure.constants
    empty: dict = {}

    anti_bad = []
    for a in labels:
        for b in labels:
            fwd = table.get((a, b), empty)
            rev = table.get((b, a), empty)
            if {g: -c for g, c in rev.items()} != fwd:
                anti_bad.append((a, b))
    checks = [Check(
        name=f"{structure.name}_antisymmetry",
        ref="bracket antisymmetry of the structure-constant table",
        passed=not anti_bad,
        residual=float(len(anti_bad)),
        tolerance=0.0,
        detail="exact" if not anti_bad else f"violations at {anti_bad[:3]}",
    )]

    def bracket_with(combo: dict, e: str) -> dict:
        # {sum_d combo[d] X_d, X_e} as a sparse coefficient map
        out: dict = {}
        for d, coeff in combo.items():
            for g, c2 in table.get((d, e), empty).items():
                s = out.get(g, 0) + coeff * c2
                if s == 0:
                    out.pop(g, None)
                else:
                    out[g] = s
        return out

    jacobi_bad = []
    for a in labels:
        for b in labels:
            for e in labels:
                total: dict = {}
                for part in (bracket_with(table.get((a, b), empty), e),
                             bracket_with(table.get((b, e), empty), a),
                             bracket_with(table.get((e, a), empty), b)):
                    for g, coeff in part.items():
                        s = total.get(g, 0) + coeff
                        if s == 0:
                            total.pop(g, None)
                        else:
                            total[g] = s
                if total:
                    jacobi_bad.append((a, b, e))
    checks.append(Check(
        name=f"{structure.name}_jacobi",
        ref="Jacobi identity of the structure-constant table",
        passed=not jacobi_bad,
        residual=float(len(jacobi_bad)),
        tolerance=0.0,
        detail="exact" if not jacobi_bad else f"violating triples {sorted(set(jacobi_bad))[:5]}",
    ))
    return checks


@dataclass(frozen=True)
class Realization:
    """Assignment of one phase-space polynomial to every generator."""

    assignment: dict


class IncompleteRealizationError(ValueError):
    def __init__(self, missing):
        self.missing = tuple(missing)
        super().__init__(f"realization missing generators: {', '.join(self.missing)}")


def galilei_realization() -> Realization:
    """M_a = eps_abg x^b p_g, P_a = p_a, G_a = x^0 p_a, H = p_0."""
    asn = {"H": p(0)}
    for a in range(1, 4):
        asn[f"P{a}"] = p(a)
        asn[f"G{a}"] = x(0) * p(a)
        m = PhasePolynomial.zero()
        for b in range(1, 4):
            for g in range(1, 4):
                s = epsilon3(a, b, g)
                if s:
                    m = m + (x(b) * p(g)).scale(Fraction(s))
        asn[f"M{a}"] = m
    return Realization(asn)


def poincare_realization() -> Realization:
    """J_j = eps_jkl x^k p_l, P_j = p_j, K_j = p_0 x^j + x^0 p_j, H = p_0.

    Signs fixed so that {K_j,P_k} = delta_jk H and {K_j,H} = P_j come out of
    the canonical bracket; the engine below certifies the full table.
    """
    asn = {"H": p(0)}
    for j in range(1, 4):
        asn[f"P{j}"] = p(j)
        asn[f"K{j}"] = p(0) * x(j) + x(0) * p(j)
        m = PhasePolynomial.zero()
        for k in range(1, 4):
            for l in range(1, 4):
                s = epsilon3(j, k, l)
                if s:
                    m = m + (x(k) * p(l)).scale(Fraction(s))
        asn[f"J{j}"] = m
    return Realization(asn)


def verify_realization(structure: LieStructure, realization: Realization) -> list[Check]:
    """Exact check that the realized brackets reproduce the table."""
    missing = [lab for lab in structure.basis_labels if lab not in realization.assignment]
    if missing:
        raise IncompleteRealizationError(missing)
    mismatches = []
    for a in structure.basis_labels:
        for b in structure.basis_labels:
            lhs = poisson_bracket(realization.assignment[a], realization.assignment[b])
            rhs = PhasePolynomial.zero()
            for g, coeff in structure.bracket(a, b).items():
                rhs = rhs + realization.assignment[g].scale(Fraction(coeff))
            if lhs - rhs:
                mismatches.append((a, b, lhs - rhs))
    return [Check(
        name=f"{structure.name}_realization",
        ref="phase-space realization reproduces the bracket table",
        passed=not mismatches,
        residual=float(len(mismatches)),
        tolerance=0.0,
        detail="all brackets reproduced exactly" if not mismatches
        else "; ".join(f"{{{a},{b}}} off by {d!r}" for a, b, d in mismatches[:4]),
    )]


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
