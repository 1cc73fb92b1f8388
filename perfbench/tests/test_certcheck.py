import numpy as np
import pytest

from certcheck import packing_error

N = 6
A = [0, 1, 2, 3, 4, 5]
B = [0, 2, 5, 3, 1, 4]  # shares no ordered pair with A
C = [0, 1, 4, 3, 5, 2]  # shares (0, 1) with A and (1, 4) with B


def _steps(cyc):
    return [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]


EDGES = np.array(_steps(A) + _steps(B) + [(4, 3), (3, 5), (5, 2), (2, 0)],
                 dtype=np.int64)


STEP_ID = {tuple(e): i for i, e in enumerate(EDGES.tolist())}


def _ids(cyc):
    return [STEP_ID.get(step, 0) for step in _steps(cyc)]


def test_valid_packing_passes():
    assert packing_error(N, EDGES, [A, B], [_ids(A), _ids(B)]) is None
    assert packing_error(N, EDGES, [C], [_ids(C)]) is None


@pytest.mark.parametrize("cycles, reason", [
    ([A, [0, 1, 1, 3, 4, 5]], "not a permutation"),
    ([A, A[:5]], "not a permutation"),
    ([A, [0, 1, 2, 3, 5, 4]], "not a host edge"),
    ([A, C], "used by two cycles"),
    ([B, C], "used by two cycles"),
])
def test_tampered_certificate_is_rejected(cycles, reason):
    assert reason in packing_error(N, EDGES, cycles, [_ids(c) for c in cycles])


def test_edge_ids_must_name_the_steps():
    assert "edge ids" in packing_error(N, EDGES, [A, B], [_ids(A), _ids(A)])
