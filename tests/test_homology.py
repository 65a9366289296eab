"""Intersection, area and codimension arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import (
    adjunction_codim,
    admissible_strata,
    chern_pairing,
    link_dimension,
)
from ruledstrata.homology import (
    NONTRIVIAL,
    TRIVIAL,
    SymplecticForm,
    admissible_count,
    area,
    intersect,
    normal_codim,
    stratum_curve_class,
)

A = TRIVIAL.h2(1, 0)
L = NONTRIVIAL.h2(1, 0)
E = NONTRIVIAL.h2(0, 1)

coeff = st.integers(min_value=-50, max_value=50)


def test_classes_and_forms_equal_by_fields():
    assert TRIVIAL.h2(1, -2) == TRIVIAL.h2(1, -2)
    assert hash(TRIVIAL.h2(1, -2)) == hash(TRIVIAL.h2(1, -2))
    assert TRIVIAL.h2(1, -2) != NONTRIVIAL.h2(1, -2)
    assert SymplecticForm(TRIVIAL, 1) == SymplecticForm(TRIVIAL, Fraction(1))
    assert SymplecticForm(TRIVIAL, 1) != SymplecticForm(NONTRIVIAL, 1)
    assert SymplecticForm(TRIVIAL, 1).lam == Fraction(1)


@pytest.mark.parametrize("a", [1.0, Fraction(1)])
def test_classes_need_exact_integers(a):
    with pytest.raises(TypeError):
        TRIVIAL.h2(a, 0)
    with pytest.raises(TypeError):
        NONTRIVIAL.h2(0, a)


def test_pairing_examples():
    assert intersect(TRIVIAL.h2(1, -1), TRIVIAL.h2(1, -2)) == -3
    assert intersect(A, A) == 0
    assert intersect(E, E) == -1
    fiber = NONTRIVIAL.h2(1, -1)  # L - E
    assert intersect(fiber, fiber) == 0


def test_mismatched_surfaces_rejected():
    with pytest.raises(ValueError):
        intersect(A, E)
    with pytest.raises(ValueError):
        area(SymplecticForm(TRIVIAL, 1), L)


@given(coeff, coeff, coeff, coeff)
def test_intersect_symmetric(a, b, c, d):
    c1, c2 = TRIVIAL.h2(a, b), TRIVIAL.h2(c, d)
    assert intersect(c1, c2) == intersect(c2, c1)
    c1, c2 = NONTRIVIAL.h2(a, b), NONTRIVIAL.h2(c, d)
    assert intersect(c1, c2) == intersect(c2, c1)


@given(coeff, coeff, coeff, coeff, coeff, coeff, coeff, coeff)
def test_intersect_bilinear(a, b, c, d, e, f, m, n):
    x, y, z = TRIVIAL.h2(a, b), TRIVIAL.h2(c, d), TRIVIAL.h2(e, f)
    combined = TRIVIAL.h2(m * a + n * c, m * b + n * d)
    assert intersect(combined, z) == m * intersect(x, z) + n * intersect(y, z)


def test_section_classes_pairing():
    for k in range(51):
        for m in range(51):
            assert intersect(TRIVIAL.h2(1, -k), TRIVIAL.h2(1, -m)) == -(k + m)


def test_area_examples():
    # area(A - kF) = 1 + lambda - k, so 1 + 5/2 - 2 = 3/2
    form = SymplecticForm(TRIVIAL, Fraction(5, 2))
    assert area(form, TRIVIAL.h2(1, -2)) == Fraction(3, 2)
    assert area(SymplecticForm(TRIVIAL, 0), A) == 1
    assert area(SymplecticForm(NONTRIVIAL, 1), E) == 1
    assert area(SymplecticForm(NONTRIVIAL, 1), NONTRIVIAL.h2(1, -1)) == 1  # fiber


@given(coeff, coeff, coeff, coeff,
       st.fractions(min_value=0, max_value=20, max_denominator=64))
def test_area_linear(a, b, c, d, lam):
    form = SymplecticForm(TRIVIAL, lam)
    c1, c2 = TRIVIAL.h2(a, b), TRIVIAL.h2(c, d)
    assert area(form, TRIVIAL.h2(a + c, b + d)) == area(form, c1) + area(form, c2)


def test_form_parameter_ranges():
    with pytest.raises(ValueError):
        SymplecticForm(TRIVIAL, Fraction(-1, 2))
    with pytest.raises(ValueError):
        SymplecticForm(NONTRIVIAL, 0)
    SymplecticForm(TRIVIAL, 0)  # boundary value is fine on the product


def admissible_range(form):
    """The indices the strata report iterates: a closed-form count from the
    first index, the route that `admissible_strata` is the oracle for."""
    first = form.surface.first
    return list(range(first, first + admissible_count(form)))


def test_admissible_examples():
    for lam, expected in ((2, [0, 1, 2]), (0, [0]), (Fraction(5, 2), [0, 1, 2, 3])):
        form = SymplecticForm(TRIVIAL, lam)
        assert admissible_strata(form) == expected
        assert admissible_range(form) == expected


def test_admissible_matches_positivity_oracle():
    # set-builder form over a grid of rationals
    for num in range(0, 41):
        for den in (1, 2, 3, 4):
            lam = Fraction(num, den)
            form = SymplecticForm(TRIVIAL, lam)
            oracle = [k for k in range(50) if area(form, TRIVIAL.h2(1, -k)) > 0]
            assert admissible_strata(form) == oracle
            assert admissible_range(form) == oracle


def test_admissible_nontrivial():
    for lam, expected in ((2, [1, 2]), (Fraction(1, 2), [1])):
        form = SymplecticForm(NONTRIVIAL, lam)
        assert admissible_strata(form) == expected
        assert admissible_range(form) == expected


def test_admissible_count_matches_list():
    for surface in (TRIVIAL, NONTRIVIAL):
        for num in range(1, 41):
            for den in (1, 2, 3, 7):
                form = SymplecticForm(surface, Fraction(num, den))
                assert admissible_count(form) == len(admissible_strata(form))
                assert admissible_range(form) == admissible_strata(form)
    assert admissible_count(SymplecticForm(TRIVIAL, 0)) == 1
    assert admissible_count(SymplecticForm(TRIVIAL, Fraction(10**400))) == 10**400 + 1


def test_chern_pairing():
    for k in range(0, 10):
        assert chern_pairing(TRIVIAL.h2(1, -k)) == 2 - 2 * k
    assert chern_pairing(NONTRIVIAL.h2(1, -1)) == 2
    assert chern_pairing(E) == 1


def codim(surface, k):
    """The codimension `homology.normal_codim` gives stratum k."""
    return normal_codim(stratum_curve_class(surface, k))


def test_strata_codim():
    assert codim(TRIVIAL, 2) == 6
    assert codim(TRIVIAL, 1) == 2
    assert codim(TRIVIAL, 0) == 0  # open stratum
    for k in range(1, 21):
        assert codim(TRIVIAL, k) == -(2 * chern_pairing(TRIVIAL.h2(1, -k)) - 2)


def test_strata_codim_nontrivial_flagged():
    # the blow-up's stated codimension 4k is not the derived 4k - 4
    for k in range(1, 8):
        stated = NONTRIVIAL.stated_codim_per_k * k
        adjunction = adjunction_codim(stratum_curve_class(NONTRIVIAL, k))
        assert stated == 4 * k
        assert adjunction == codim(NONTRIVIAL, k) == 4 * k - 4
        assert stated != adjunction
    assert TRIVIAL.stated_codim_per_k is None
    for k in range(1, 8):
        assert codim(TRIVIAL, k) == adjunction_codim(stratum_curve_class(TRIVIAL, k))
    with pytest.raises(ValueError):
        stratum_curve_class(NONTRIVIAL, 0)


def test_normal_codim_matches_oracles():
    # every k <= 2000: the adjunction route, the closed forms, and each
    # difference of two codimensions against the stated link dimension
    for surface, closed in ((TRIVIAL, lambda k: max(0, 4 * k - 2)),
                            (NONTRIVIAL, lambda k: 4 * k - 4)):
        codims = {}
        for k in range(surface.first, 2001):
            b = stratum_curve_class(surface, k)
            codims[k] = normal_codim(b)
            assert codims[k] == adjunction_codim(b) == closed(k)
        for k, low in codims.items():
            for m in range(k + 1, 2001):
                assert codims[m] - low - 1 == link_dimension(m, k)


def test_nontrivial_sections_self_intersection():
    # the stratum-k curve is a section of self-intersection 1 - 2k
    for k in range(1, 10):
        b = stratum_curve_class(NONTRIVIAL, k)
        assert intersect(b, b) == 1 - 2 * k


def test_link_dimension():
    assert link_dimension(2, 1) == 3
    assert link_dimension(5, 4) == 3
    assert link_dimension(2, 0) == 5  # pointed link, inferred 4m - 3
    assert link_dimension(1, 0) == 1
    with pytest.raises(ValueError):
        link_dimension(2, 2)
    with pytest.raises(ValueError):
        link_dimension(1, 3)
