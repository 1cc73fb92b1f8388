import numpy as np
import pytest

from hostgen import HostGenerationError, expected_violations, generate_host


def test_host_is_simple_and_meets_the_floor():
    n, c, k = 3000, 20, 2
    edges = generate_host(n, c, k, np.random.default_rng(5))
    assert edges.shape[1] == 2 and 0 < len(edges) <= c * n
    assert edges.min() >= 0 and edges.max() < n
    assert not np.any(edges[:, 0] == edges[:, 1])
    codes = edges[:, 0] * n + edges[:, 1]
    assert len(np.unique(codes)) == len(codes)
    assert np.bincount(edges[:, 0], minlength=n).min() >= k + 1
    assert np.bincount(edges[:, 1], minlength=n).min() >= k + 1


def test_same_seed_same_host():
    a = generate_host(2000, 20, 1, np.random.default_rng(9))
    b = generate_host(2000, 20, 1, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_expected_violations_at_the_documented_points():
    assert expected_violations(100_000, 20, 1) == pytest.approx(4.3e-3, rel=0.05)
    assert expected_violations(100_000, 10, 1) == pytest.approx(50, rel=0.05)


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"generator drew ({name}) before refusing")


def test_guard_refuses_without_sampling():
    with pytest.raises(HostGenerationError, match="degree floor"):
        generate_host(100_000, 10, 1, _NoDraws())
