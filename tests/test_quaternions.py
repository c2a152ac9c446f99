import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicereg import (Quaternion, SliceCoord, UnitImaginary,
                      coefficient_identities, slice_decompose)
from slicereg.errors import DegeneratePairError, NonInvertibleError
from slicereg.quaternions import (ONE, QI, QJ, QK, mul_rows, norm_rows,
                                  rotate_toward)

from conftest import random_unit

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def test_basis_relations():
    assert (QI * QI).isclose(Quaternion(-1))
    assert (QJ * QJ).isclose(Quaternion(-1))
    assert (QK * QK).isclose(Quaternion(-1))
    assert (QI * QJ).isclose(QK)
    assert (QJ * QI).isclose(-QK)
    assert (QI * QJ * QK).isclose(Quaternion(-1))


def test_distributivity_example():
    assert ((ONE + QI) * (ONE + QJ)).isclose(Quaternion(1, 1, 1, 1))


def test_inverse_examples():
    # |i - j|^2 = 2 and conj(i - j) = j - i
    assert (QI - QJ).inverse().isclose((QJ - QI) / 2.0)
    assert Quaternion(2).inverse().isclose(Quaternion(0.5))
    assert QI.inverse().isclose(-QI)
    q = Quaternion(2, 1, 0, -3)
    assert (q * q.inverse()).isclose(ONE, atol=1e-14)


def test_inverse_of_zero_raises():
    with pytest.raises(NonInvertibleError):
        Quaternion(0.0).inverse()


@settings(max_examples=200, deadline=None)
@given(quats, quats)
def test_norm_multiplicativity(p, q):
    lhs = (p * q).norm()
    rhs = p.norm() * q.norm()
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + rhs)


@settings(max_examples=200, deadline=None)
@given(quats, quats, quats)
def test_associativity(p, q, r):
    lhs = (p * q) * r
    rhs = p * (q * r)
    scale = 1.0 + p.norm() * q.norm() * r.norm()
    assert (lhs - rhs).norm() <= 1e-9 * scale


@settings(max_examples=100, deadline=None)
@given(quats)
def test_inverse_roundtrip(q):
    if q.norm() < 1e-6:
        return
    assert (q * q.inverse()).isclose(ONE, atol=1e-9)
    assert (q.inverse() * q).isclose(ONE, atol=1e-9)


def test_unit_imaginary_square_is_minus_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = random_unit(rng).as_quaternion()
        assert (u * u).isclose(Quaternion(-1), atol=1e-12)


def test_coefficient_identities_canonical():
    i = UnitImaginary(1, 0, 0)
    j = UnitImaginary(0, 1, 0)
    first, second = coefficient_identities(i, j)
    assert first.isclose(ONE, atol=1e-15)
    assert second.isclose(Quaternion(0), atol=1e-15)
    # antipodal pair, (2I)^-1 arithmetic
    first, second = coefficient_identities(i, -i)
    assert first.isclose(ONE, atol=1e-15)
    assert second.isclose(Quaternion(0), atol=1e-15)


def test_coefficient_identities_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        J = random_unit(rng)
        K = random_unit(rng)
        if J.chord(K) < 1e-6:
            continue
        first, second = coefficient_identities(J, K)
        assert (first - ONE).norm() <= 1e-12
        assert second.norm() <= 1e-12


def test_coefficient_identities_degenerate():
    i = UnitImaginary(1, 0, 0)
    with pytest.raises(DegeneratePairError):
        coefficient_identities(i, i)


def test_slice_decompose_examples():
    c = slice_decompose(Quaternion(3, 4, 0, 0))
    assert c.x == 3 and c.y == 4 and c.unit.approx(UnitImaginary(1, 0, 0))
    r = slice_decompose(Quaternion(5))
    assert r.is_real and r.unit is None
    # canonicalization keeps y >= 0
    c = slice_decompose(Quaternion(1, 0, -2, 0))
    assert c.y == 2 and c.unit.approx(UnitImaginary(0, -1, 0))


def test_slice_coord_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(100):
        q = Quaternion(*rng.uniform(-2, 2, size=4))
        assert slice_decompose(q).to_quaternion().isclose(q, atol=1e-12)


def test_slice_embedding_is_isometric():
    rng = np.random.default_rng(7)
    for _ in range(200):
        J = random_unit(rng)
        x, y, x2, y2 = rng.uniform(-3, 3, size=4)
        p = SliceCoord.make(x, abs(y), J).to_quaternion()
        q = SliceCoord.make(x2, abs(y2), J).to_quaternion()
        planar = math.hypot(x - x2, abs(y) - abs(y2))
        assert abs((p - q).norm() - planar) <= 1e-12 * (1 + planar)


def test_distance_inequality_identity():
    # |x+yK0－gamma|^2 - |x+yJ0-gamma|^2 equals 2 y beta (1 - <K0,J0>), which
    # is nonnegative; gamma = alpha + J0 beta
    rng = np.random.default_rng(13)
    for _ in range(500):
        J0 = random_unit(rng)
        K0 = random_unit(rng)
        x, alpha = rng.uniform(-3, 3, size=2)
        y, beta = rng.uniform(0, 3, size=2)
        gamma = Quaternion(alpha) + J0.as_quaternion() * beta
        pk = SliceCoord.make(x, y, K0).to_quaternion()
        pj = SliceCoord.make(x, y, J0).to_quaternion()
        lhs = (pk - gamma).norm2() - (pj - gamma).norm2()
        rhs = 2.0 * y * beta * (1.0 - K0.dot(J0))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))
        assert rhs >= -1e-12


def test_rotate_toward_chord():
    rng = np.random.default_rng(17)
    for _ in range(50):
        J = random_unit(rng)
        chord = rng.uniform(1e-4, 1.9)
        K = rotate_toward(J, chord)
        assert abs(J.chord(K) - chord) <= 1e-12


_component = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-300, -1e-300]))
_row = st.tuples(*[_component] * 4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_row, _row), min_size=1, max_size=8))
def test_row_products_and_norms_match_scalar_bit_for_bit(pairs):
    """mul_rows and norm_rows give Quaternion.__mul__ and .norm exactly,
    signed zeros included, also when one side broadcasts."""
    p = np.array([a for a, _ in pairs])
    q = np.array([b for _, b in pairs])
    Q = Quaternion
    want = np.array([(Q(*a) * Q(*b)).to_list() for a, b in pairs])
    assert mul_rows(p, q).tobytes() == want.tobytes()
    first = np.array([(Q(*pairs[0][0]) * Q(*b)).to_list() for _, b in pairs])
    assert mul_rows(p[0], q).tobytes() == first.tobytes()
    assert norm_rows(p).tobytes() == np.array([Q(*a).norm() for a, _ in pairs]).tobytes()
