"""Gluing-parameter bundle degrees."""

import pytest

from ruledstrata.bundles import gluing_bundle, v2_bundle
from ruledstrata.homology import TRIVIAL, intersect


def test_gluing_bundle_degrees():
    assert gluing_bundle(1) == -2
    assert gluing_bundle(3) == -6
    for k in range(1, 11):
        assert gluing_bundle(k) == -2 * k
    with pytest.raises(ValueError):
        gluing_bundle(0)


def test_gluing_degree_is_self_intersection_plus_two():
    for k in range(1, 21):
        lower = TRIVIAL.h2(1, -(k + 1))
        assert gluing_bundle(k) == intersect(lower, lower) + 2


def test_v2_bundle():
    assert v2_bundle() == (-2, 0)
    assert v2_bundle()[0] == gluing_bundle(1)
