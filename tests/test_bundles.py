"""Formal bundle arithmetic."""

import pytest
from hypothesis import given, strategies as st

from ruledstrata.bundles import (
    TANGENT_SPHERE,
    Rank2BundleExpr,
    gluing_bundle,
    o,
    pullback_by_degree,
    tensor,
    v2_bundle,
)
from ruledstrata.homology import TRIVIAL, intersect

deg = st.integers(min_value=-40, max_value=40)


def test_tensor_examples():
    assert tensor(o(-4), o(2)) == o(-2)
    assert tensor(o(7), o(0)) == o(7)


@given(deg, deg, deg)
def test_tensor_associative_commutative(a, b, c):
    x, y, z = o(a), o(b), o(c)
    assert tensor(x, y) == tensor(y, x)
    assert tensor(tensor(x, y), z) == tensor(x, tensor(y, z))


@given(deg, deg, deg)
def test_pullback_multiplicative(d1, d2, a):
    bundle = o(a)
    assert pullback_by_degree(d1 * d2, bundle) == \
        pullback_by_degree(d1, pullback_by_degree(d2, bundle))
    assert pullback_by_degree(1, bundle) == bundle
    assert pullback_by_degree(-2, o(2)) == o(-4)


def test_gluing_bundle_degrees():
    assert gluing_bundle(1) == o(-2)
    assert gluing_bundle(3) == o(-6)
    for k in range(1, 11):
        twisted = tensor(pullback_by_degree(-(k + 1), TANGENT_SPHERE),
                         TANGENT_SPHERE)
        assert gluing_bundle(k) == twisted
    with pytest.raises(ValueError):
        gluing_bundle(0)


def test_gluing_degree_is_self_intersection_plus_two():
    a_class = TRIVIAL.h2(1, 0)
    f_class = TRIVIAL.h2(0, 1)
    for k in range(1, 21):
        lower = a_class - (k + 1) * f_class
        assert gluing_bundle(k).degree == intersect(lower, lower) + 2


def test_v2_bundle():
    b = v2_bundle()
    assert b.degrees == (-2, 0)
    assert b.normal_form == -2
    assert b.normal_form == Rank2BundleExpr((-1, -1)).normal_form


@given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10))
def test_rank2_isomorphism_by_sum(k, m, t):
    b = Rank2BundleExpr((k, m))
    assert b.normal_form == b.twisted(t, -t).normal_form
    assert b.normal_form == Rank2BundleExpr((m, k)).normal_form
    if t != 0:
        assert b.normal_form != b.twisted(t, 0).normal_form
