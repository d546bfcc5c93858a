import itertools
from fractions import Fraction

import numpy as np
import pytest

from symmetria.liealg import (
    IncompleteRealizationError,
    LieStructure,
    PhasePolynomial,
    Realization,
    check_structure,
    galilei_realization,
    galilei_structure,
    levi_civita,
    p,
    poincare_realization,
    poincare_structure,
    poisson_bracket,
    structure_to_json,
    verify_realization,
    x,
)


def test_canonical_pair():
    assert poisson_bracket(x(1), p(1)) == PhasePolynomial.constant(Fraction(1))
    assert not poisson_bracket(x(1), p(2))


def test_canonical_coordinate_brackets():
    # {x^mu, p_nu} = delta_mu_nu and {x^mu, x^nu} = {p_mu, p_nu} = 0 for all four mu
    for mu in range(4):
        for nu in range(4):
            assert poisson_bracket(x(mu), p(nu)) == PhasePolynomial.constant(int(mu == nu))
            assert poisson_bracket(p(nu), x(mu)) == PhasePolynomial.constant(-int(mu == nu))
            assert not poisson_bracket(x(mu), x(nu)) and not poisson_bracket(p(mu), p(nu))


def test_bracket_hand_expansion():
    # {x1 p2, x2 p1} = x2 p2 - x1 p1 by direct expansion of the canonical
    # bracket (the momentum-weighted coordinates swap into diagonal terms)
    f = x(1) * p(2)
    g = x(2) * p(1)
    expected = x(2) * p(2) - x(1) * p(1)
    assert poisson_bracket(f, g) == expected


def test_bracket_antisymmetry_on_random_polynomials():
    rng = np.random.default_rng(31)
    vars_ = [x(0), x(1), x(2), x(3), p(0), p(1), p(2), p(3)]
    for _ in range(10):
        f = PhasePolynomial()
        for _ in range(4):
            i, j = rng.integers(0, 8, 2)
            f = f + (vars_[i] * vars_[j]).scale(Fraction(int(rng.integers(-5, 6))))
        assert not poisson_bracket(f, f)


def test_bracket_leibniz_rule():
    rng = np.random.default_rng(32)
    vars_ = [x(0), x(1), x(2), x(3), p(0), p(1), p(2), p(3)]

    def random_poly(deg):
        out = PhasePolynomial.constant(Fraction(int(rng.integers(-3, 4))))
        for _ in range(deg):
            term = vars_[int(rng.integers(0, 8))]
            for _ in range(int(rng.integers(0, 3))):
                term = term * vars_[int(rng.integers(0, 8))]
            out = out + term.scale(Fraction(int(rng.integers(-4, 5))))
        return out

    for _ in range(5):
        f, g, h = random_poly(3), random_poly(3), random_poly(3)
        lhs = poisson_bracket(f, g * h)
        rhs = poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
        assert not (lhs - rhs)


def test_bracket_jacobi_identity():
    rng = np.random.default_rng(33)
    vars_ = [x(0), x(1), x(2), x(3), p(0), p(1), p(2), p(3)]

    def random_quadratic():
        out = PhasePolynomial()
        for _ in range(4):
            i, j = rng.integers(0, 8, 2)
            out = out + (vars_[i] * vars_[j]).scale(Fraction(int(rng.integers(-5, 6))))
        return out

    for _ in range(5):
        f, g, h = (random_quadratic() for _ in range(3))
        total = poisson_bracket(f, poisson_bracket(g, h))
        total = total + poisson_bracket(g, poisson_bracket(h, f))
        total = total + poisson_bracket(h, poisson_bracket(f, g))
        assert not total


def test_galilei_table_exact():
    structure = galilei_structure()
    assert structure.dimension() == 10
    assert check_structure(structure) == ([], [])
    # spot values from the stated table
    assert structure.bracket("M1", "M2") == {"M3": Fraction(1)}
    assert structure.bracket("H", "G2") == {"P2": Fraction(-1)}
    assert structure.bracket("P1", "H") == {}
    assert structure.bracket("P1", "G2") == {}


def test_poincare_table_exact():
    structure = poincare_structure()
    assert structure.dimension() == 10
    assert check_structure(structure) == ([], [])
    assert structure.bracket("K1", "P1") == {"H": Fraction(1)}
    assert structure.bracket("K1", "K2") == {"J3": Fraction(-1)}
    assert structure.bracket("K2", "H") == {"P2": Fraction(1)}
    assert structure.bracket("J1", "P2") == {"P3": Fraction(1)}


def test_galilei_realization_reproduces_table():
    assert verify_realization(galilei_structure(), galilei_realization()) == []


def test_galilei_realization_boost_bracket_sign():
    # {H, G_a} = -P_a with H = p0 and G_a = x0 p_a
    real = galilei_realization()
    out = poisson_bracket(real.assignment["H"], real.assignment["G1"])
    assert out == p(1).scale(Fraction(-1))


def test_poincare_realization_reproduces_full_table():
    # the chosen boost polynomials K_j = p0 x^j + x^0 p_j close the entire
    # table, not only the displacement sector
    assert verify_realization(poincare_structure(), poincare_realization()) == []


def test_empty_realization_reports_missing():
    with pytest.raises(IncompleteRealizationError) as err:
        verify_realization(galilei_structure(), Realization({}))
    assert "M1" in err.value.missing and "H" in err.value.missing


def test_mutated_table_fails_jacobi():
    structure = poincare_structure()
    bad = dict(structure.constants)
    bad[("J2", "J3")] = {"J1": Fraction(-1)}
    bad[("J3", "J2")] = {"J1": Fraction(1)}
    mutated = LieStructure("mutated", structure.basis_labels, bad)
    bad_pairs, bad_triples = check_structure(mutated)
    assert bad_pairs == []
    assert bad_triples == sorted(bad_triples) and len(set(bad_triples)) == len(bad_triples)
    # the violations implicate the mutated rotation pair
    assert all({"J2", "J3"} & set(t) for t in bad_triples)
    assert ("J2", "J3", "P2") in bad_triples


def test_antisymmetry_defect_names_the_pair():
    structure = galilei_structure()
    bad = {**structure.constants, ("P1", "G1"): {"H": 1}}
    bad_pairs, _ = check_structure(LieStructure("lopsided", structure.basis_labels, bad))
    assert bad_pairs == [("P1", "G1"), ("G1", "P1")]


def test_realization_mismatch_is_returned_not_raised():
    real = galilei_realization()
    flipped = Realization({**real.assignment, "H": -real.assignment["H"]})
    mismatches = verify_realization(galilei_structure(), flipped)
    # only the {H, G_a} brackets involve H nontrivially
    assert [(a, b) for a, b, _ in mismatches] == [
        ("G1", "H"), ("G2", "H"), ("G3", "H"), ("H", "G1"), ("H", "G2"), ("H", "G3")]
    assert mismatches[-1][2] == p(3).scale(2)


def test_structure_json_roundtrip_shape():
    doc = structure_to_json(poincare_structure())
    assert doc["basis"] == ["J1", "J2", "J3", "P1", "P2", "P3", "K1", "K2", "K3", "H"]
    entries = {(b["a"], b["b"]): b["out"] for b in doc["brackets"]}
    assert entries[("K1", "P1")] == [{"gen": "H", "coeff": "1"}]
    assert all(len(out) >= 1 for out in entries.values())


def test_levi_civita_matches_permutation_parity():
    for base in ((0, 1, 2), (1, 2, 3), (0, 1, 2, 3)):
        for perm in itertools.permutations(base):
            # parity by counting the transpositions that sort perm
            seq, swaps = list(perm), 0
            for i, want in enumerate(base):
                j = seq.index(want)
                if j != i:
                    seq[i], seq[j] = seq[j], seq[i]
                    swaps += 1
            assert levi_civita(*perm) == (-1) ** swaps, perm
        assert levi_civita(*base) == 1
        assert levi_civita(base[0], *base[:-1]) == 0
        assert levi_civita(*base[:-1], base[0]) == 0


def test_bracket_is_ring_generic():
    f = x(1).scale(Fraction(1, 2)) * p(2)
    g = x(2) * p(1)
    as_q = poisson_bracket(f, g)
    assert as_q == (x(2) * p(2) - x(1) * p(1)).scale(Fraction(1, 2))
    assert all(type(c) is Fraction for c in as_q.terms.values())


def test_tables_and_realizations_have_int_coefficients():
    for structure in (galilei_structure(), poincare_structure()):
        assert all(type(c) is int for out in structure.constants.values() for c in out.values())
    for real in (galilei_realization(), poincare_realization()):
        assert all(type(c) is int for poly in real.assignment.values()
                   for c in poly.terms.values())
