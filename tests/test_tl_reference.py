"""Dense (non-dilute) reference quantities used by the dilute formulas."""

import pytest

from helpers import catalan, dim_irr_tl_recursive

from dilutetl.ring import GENERIC, root_of_unity
from dilutetl.tl_reference import (det_gram_tl, dim_irr_tl, dim_tl, dim_v,
                                   is_critical, occupied_counts)
from dilutetl.gram import _bareiss_det, _nullity_field, tl_gram_matrix


@pytest.mark.parametrize("n", range(0, 10))
def test_dim_tl_is_catalan(n):
    assert dim_tl(n) == catalan(n)


def test_occupied_counts():
    assert occupied_counts(4, 0) == [(0, 1), (2, 6), (4, 1)]
    assert occupied_counts(5, 1) == [(1, 5), (3, 10), (5, 1)]
    for k in (-1, 6):
        assert occupied_counts(5, k) == []


def test_dim_v_values():
    assert dim_v(4, 0) == 2 and dim_v(4, 2) == 3 and dim_v(4, 4) == 1
    assert dim_v(5, 2) == 0  # parity mismatch
    assert dim_v(3, 5) == 0 and dim_v(3, -1) == 0
    for n in range(0, 9):
        assert sum(dim_v(n, k) ** 2 for k in range(n + 1)) == dim_tl(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_det_gram_tl_vs_direct(n):
    for k in range(n + 1):
        if dim_v(n, k) == 0:
            continue
        direct = _bareiss_det(tl_gram_matrix(n, k))
        if n == k:
            assert direct == GENERIC.one()
            continue
        closed = det_gram_tl(n, k)
        assert direct == closed, (n, k)


def test_det_gram_tl_guards():
    with pytest.raises(ValueError):
        det_gram_tl(3, 0)  # parity mismatch: empty module


def test_is_critical():
    assert is_critical(2, 3) and is_critical(5, 3) and not is_critical(3, 3)
    assert is_critical(1, 2) and not is_critical(0, 2)


def test_dim_irr_tl_generic_is_standard():
    for n in range(0, 8):
        for k in range(n + 1):
            assert dim_irr_tl(n, k) == dim_v(n, k)


@pytest.mark.parametrize("m", [4, 6, 8])
def test_dim_irr_tl_vs_gram_nullity(m):
    """The recurrence equals dimension minus exact Gram nullity."""
    mode = root_of_unity(m)
    ell = mode.ell
    for n in range(1, 7):
        for k in range(n + 1):
            dv = dim_v(n, k)
            if dv == 0:
                continue
            if n == k:
                nullity = 0  # the all-defect module pairs to 1
            else:
                nullity = _nullity_field(tl_gram_matrix(n, k, mode))
            assert dim_irr_tl(n, k, ell) == dv - nullity, (n, k, m)


def test_dim_irr_tl_critical_full():
    for ell in (2, 3, 4):
        for n in range(0, 9):
            for k in range(n + 1):
                if dim_v(n, k) and is_critical(k, ell):
                    assert dim_irr_tl(n, k, ell) == dim_v(n, k)


def test_dim_irr_tl_loop_matches_recursion():
    """The sum over the reflection orbit equals the recurrence in n, out-of-range k too."""
    for ell in range(2, 9):
        for n in range(61):
            for k in range(-1, n + 2):
                assert dim_irr_tl(n, k, ell) == dim_irr_tl_recursive(n, k, ell), (n, k, ell)
