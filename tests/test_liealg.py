import itertools

import numpy as np
import pytest

from oracles import canonical_bracket_matches_at_points
from symmetria.liealg import (
    ENTRY_BOUND,
    ONE,
    IncompleteRealizationError,
    LieStructure,
    check_structure,
    format_quadratic,
    galilei_realization,
    galilei_structure,
    levi_civita,
    poincare_realization,
    poincare_structure,
    poisson_bracket,
    structure_to_json,
    verify_realization,
)


def quadratic(*terms):
    """Matrix Q of sum c * w_i * w_j over (c, i, j), w = (x0..x3, p0..p3, 1),
    written out here so the tests do not build generators through liealg."""
    Q = np.zeros((9, 9), dtype=np.int64)
    for c, i, j in terms:
        Q[i, j] += c
        Q[j, i] += c
    return Q


def x(mu):
    return quadratic((1, mu, ONE))


def p(mu):
    return quadratic((1, 4 + mu, ONE))


def constant(c):
    return quadratic((c, ONE, ONE))


def random_quadratic(rng):
    """A random symmetric integer 9x9 with an even diagonal: an inhomogeneous
    quadratic with integer coefficients."""
    A = rng.integers(-5, 6, size=(9, 9))
    return A + A.T


def test_canonical_pair():
    assert (poisson_bracket(x(1), p(1)) == constant(1)).all()
    assert not poisson_bracket(x(1), p(2)).any()


def test_canonical_coordinate_brackets():
    # {x^mu, p_nu} = delta_mu_nu and {x^mu, x^nu} = {p_mu, p_nu} = 0 for all four mu
    for mu in range(4):
        for nu in range(4):
            assert (poisson_bracket(x(mu), p(nu)) == constant(int(mu == nu))).all()
            assert (poisson_bracket(p(nu), x(mu)) == constant(-int(mu == nu))).all()
            assert not poisson_bracket(x(mu), x(nu)).any()
            assert not poisson_bracket(p(mu), p(nu)).any()


def test_bracket_hand_expansion():
    # {x1 p2, x2 p1} = x2 p2 - x1 p1 by direct expansion of the canonical
    # bracket (the momentum-weighted coordinates swap into diagonal terms)
    f = quadratic((1, 1, 6))
    g = quadratic((1, 2, 5))
    expected = quadratic((1, 2, 6), (-1, 1, 5))
    assert (poisson_bracket(f, g) == expected).all()


def test_bracket_antisymmetry_on_random_polynomials():
    rng = np.random.default_rng(31)
    for _ in range(10):
        f, g = random_quadratic(rng), random_quadratic(rng)
        assert not poisson_bracket(f, f).any()
        assert (poisson_bracket(f, g) == -poisson_bracket(g, f)).all()


def test_bracket_jacobi_identity():
    rng = np.random.default_rng(33)
    for _ in range(20):
        f, g, h = (random_quadratic(rng) for _ in range(3))
        total = (poisson_bracket(f, poisson_bracket(g, h))
                 + poisson_bracket(g, poisson_bracket(h, f))
                 + poisson_bracket(h, poisson_bracket(f, g)))
        assert not total.any()


def test_bracket_matches_pointwise_oracle():
    rng = np.random.default_rng(34)
    for _ in range(50):
        f, g = random_quadratic(rng), random_quadratic(rng)
        assert canonical_bracket_matches_at_points(f, g, poisson_bracket(f, g), rng)
    for real in (galilei_realization(), poincare_realization()):
        for f, g in itertools.product(real.values(), repeat=2):
            assert canonical_bracket_matches_at_points(f, g, poisson_bracket(f, g), rng)
    # and it is not vacuous: a wrong sign is caught
    f, g = random_quadratic(rng), random_quadratic(rng)
    assert not canonical_bracket_matches_at_points(f, g, -poisson_bracket(f, g), rng)


def test_galilei_table_exact():
    structure = galilei_structure()
    assert structure.dimension() == 10
    assert check_structure(structure) == ([], [])
    C, ix = structure.constants, structure.basis_labels.index
    # spot values from the stated table
    assert np.flatnonzero(C[ix("M1"), ix("M2")]).tolist() == [ix("M3")]
    assert C[ix("M1"), ix("M2"), ix("M3")] == 1
    assert np.flatnonzero(C[ix("H"), ix("G2")]).tolist() == [ix("P2")]
    assert C[ix("H"), ix("G2"), ix("P2")] == -1
    assert not C[ix("P1"), ix("H")].any()
    assert not C[ix("P1"), ix("G2")].any()


def test_poincare_table_exact():
    structure = poincare_structure()
    assert structure.dimension() == 10
    assert check_structure(structure) == ([], [])
    C, ix = structure.constants, structure.basis_labels.index
    for a, b, e, c in (("K1", "P1", "H", 1), ("K1", "K2", "J3", -1),
                       ("K2", "H", "P2", 1), ("J1", "P2", "P3", 1)):
        assert np.flatnonzero(C[ix(a), ix(b)]).tolist() == [ix(e)]
        assert C[ix(a), ix(b), ix(e)] == c


def test_galilei_realization_reproduces_table():
    assert verify_realization(galilei_structure(), galilei_realization()) == []


def test_galilei_realization_boost_bracket_sign():
    # {H, G_a} = -P_a with H = p0 and G_a = x0 p_a
    real = galilei_realization()
    assert (poisson_bracket(real["H"], real["G1"]) == -p(1)).all()


def test_poincare_realization_reproduces_full_table():
    # the chosen boost generators K_j = p0 x^j + x^0 p_j close the entire
    # table, not only the displacement sector
    assert verify_realization(poincare_structure(), poincare_realization()) == []


def test_empty_realization_reports_missing():
    with pytest.raises(IncompleteRealizationError) as err:
        verify_realization(galilei_structure(), {})
    assert "M1" in err.value.missing and "H" in err.value.missing


def test_mutated_table_fails_jacobi():
    structure = poincare_structure()
    bad = structure.constants.copy()
    j1, j2, j3 = map(structure.basis_labels.index, ("J1", "J2", "J3"))
    bad[j2, j3, j1], bad[j3, j2, j1] = -1, 1
    mutated = LieStructure("mutated", structure.basis_labels, bad)
    bad_pairs, bad_triples = check_structure(mutated)
    assert bad_pairs == []
    assert bad_triples == sorted(bad_triples) and len(set(bad_triples)) == len(bad_triples)
    assert len(bad_triples) == 36
    # the violations implicate the mutated rotation pair
    assert all({"J2", "J3"} & set(t) for t in bad_triples)
    assert ("J2", "J3", "P2") in bad_triples
    assert all(type(label) is str for t in bad_triples for label in t)


def test_antisymmetry_defect_names_the_pair():
    structure = galilei_structure()
    bad = structure.constants.copy()
    ix = structure.basis_labels.index
    bad[ix("P1"), ix("G1"), ix("H")] = 1
    bad_pairs, _ = check_structure(LieStructure("lopsided", structure.basis_labels, bad))
    assert bad_pairs == [("P1", "G1"), ("G1", "P1")]


def test_realization_mismatch_is_returned_not_raised():
    real = galilei_realization()
    flipped = {**real, "H": -real["H"]}
    mismatches = verify_realization(galilei_structure(), flipped)
    # only the {H, G_a} brackets involve H nontrivially
    assert [(a, b) for a, b, _ in mismatches] == [
        ("G1", "H"), ("G2", "H"), ("G3", "H"), ("H", "G1"), ("H", "G2"), ("H", "G3")]
    assert (mismatches[-1][2] == 2 * p(3)).all()
    assert format_quadratic(mismatches[-1][2]) == "2*p3"


def test_negated_boost_mismatches_sixteen_pairs():
    real = poincare_realization()
    mismatches = verify_realization(poincare_structure(), {**real, "K1": -real["K1"]})
    assert len(mismatches) == 16
    # every bracket with K1 in it, or with K1 in its value ({J2, K3} = -K1, ...)
    assert [(a, b) for a, b, _ in mismatches] == [
        ("J2", "K1"), ("J2", "K3"), ("J3", "K1"), ("J3", "K2"), ("P1", "K1"), ("K1", "J2"),
        ("K1", "J3"), ("K1", "P1"), ("K1", "K2"), ("K1", "K3"), ("K1", "H"), ("K2", "J3"),
        ("K2", "K1"), ("K3", "J2"), ("K3", "K1"), ("H", "K1")]
    assert {(a, b): format_quadratic(d) for a, b, d in mismatches}[("J2", "K1")] == \
        "2*x3*p0 + 2*x0*p3"


def test_format_quadratic_matches_polynomial_text():
    assert format_quadratic(np.zeros((9, 9), dtype=np.int64)) == "0"
    assert format_quadratic(quadratic((1, 0, 5))) == "1*x0*p1"
    assert format_quadratic(constant(3)) == "3"
    # ascending exponent tuples over (x0..x3, p0..p3): x0 terms come last
    assert format_quadratic(quadratic((1, 0, 0), (-2, 1, 1), (4, 7, ONE), (-1, ONE, ONE))) \
        == "-1 + 4*p3 + -2*x1^2 + 1*x0^2"


@pytest.mark.parametrize("constants, labels", [
    (np.zeros((10, 10, 10)), 10),                                # float table
    (np.zeros((10, 10, 9), dtype=np.int64), 10),                 # not (n, n, n)
    (np.zeros((10, 10, 10), dtype=np.int64), 9),                 # n disagrees with the labels
    (np.full((10, 10, 10), ENTRY_BOUND + 1, dtype=np.int64), 10),  # above the bound
    (np.full((10, 10, 10), -2 ** 63, dtype=np.int64), 10),       # |entry| wraps in int64
])
def test_check_structure_rejects_bad_tables(constants, labels):
    structure = LieStructure("bad", tuple(f"X{i}" for i in range(labels)), constants)
    with pytest.raises(ValueError, match="expected integers"):
        check_structure(structure)
    with pytest.raises(ValueError, match="expected integers"):
        verify_realization(structure, {lab: np.zeros((9, 9), dtype=np.int64)
                                       for lab in structure.basis_labels})


@pytest.mark.parametrize("damage", [
    lambda Q: Q.astype(float),                          # not integer
    lambda Q: Q[:8, :8],                                # not 9x9
    lambda Q: Q + np.triu(np.ones_like(Q), 1),          # not symmetric
    lambda Q: Q + np.eye(9, dtype=np.int64),            # odd diagonal: half-integer coefficients
    lambda Q: Q + (ENTRY_BOUND + 1) * np.eye(9, dtype=np.int64) * 2,  # above the bound
])
def test_verify_realization_rejects_bad_matrices(damage):
    real = galilei_realization()
    with pytest.raises(ValueError):
        verify_realization(galilei_structure(), {**real, "H": damage(real["H"])})


def test_entry_bound_keeps_every_sum_in_int64():
    # the sums stated at ENTRY_BOUND: 3*n*B**2 for Jacobi, (18 + n)*B**2 for
    # a realization, below 2**63 for any n < 2**21
    n = 2 ** 21 - 1
    assert max(3 * n, 18 + n) * ENTRY_BOUND ** 2 < 2 ** 63
    # a dense table and realization at the bound are still accepted, and the
    # defect is exact: {Q, Q} = 0, so each bracket is off by -sum_e C Q_e
    labels = tuple(f"X{i}" for i in range(10))
    structure = LieStructure("dense", labels, np.full((10, 10, 10), ENTRY_BOUND))
    mismatches = verify_realization(structure, dict.fromkeys(labels, np.full((9, 9), ENTRY_BOUND)))
    assert len(mismatches) == 100
    assert all((d == -10 * ENTRY_BOUND ** 2).all() for _, _, d in mismatches)


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


def test_tables_and_realizations_have_int_coefficients():
    for structure in (galilei_structure(), poincare_structure()):
        assert structure.constants.dtype == np.int64
    for real in (galilei_realization(), poincare_realization()):
        for Q in real.values():
            assert Q.dtype == np.int64 and Q.shape == (9, 9)
            assert (Q == Q.T).all() and not (np.diagonal(Q) % 2).any()
