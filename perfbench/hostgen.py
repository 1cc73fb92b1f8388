"""Benchmark-owned host generator for the sampler-bypassing workload.

Out- and in-degrees are each Multinomial(m; 1/n, ..., 1/n) conditioned
on every coordinate being >= k+1, drawn as ``np.bincount`` of m uniform
vertex labels and redrawn until the floor holds.  That conditional law
equals n iid truncated-Poisson draws conditioned on sum m, so this is an
exact sampler of the model's degree sequences.  The slots are then
paired uniformly, loops and repeated ordered pairs are erased, and the
whole draw is repeated if erasure broke the degree floor.

The floor redraw only terminates quickly when n * P(Pois(c) <= k), the
expected number of floor violations per vector, is small; otherwise the
generator refuses before drawing anything.
"""

from __future__ import annotations

import math

import numpy as np

# Largest accepted n * P(Pois(c) <= k).  Each vector then meets the
# floor with probability about exp(-0.1) > 0.9.
MAX_EXPECTED_VIOLATIONS = 0.1
MAX_DRAWS = 100


class HostGenerationError(ValueError):
    """The requested (n, c, k) point cannot be generated by this method."""


def expected_violations(n: int, c: float, k: int) -> float:
    """n * P(Pois(c) <= k): mean count of degrees below the k+1 floor."""
    head = sum(math.exp(j * math.log(c) - c - math.lgamma(j + 1))
               for j in range(k + 1))
    return n * head


def _floored_degrees(n: int, m: int, k: int, rng: np.random.Generator):
    for _ in range(MAX_DRAWS):
        deg = np.bincount(rng.integers(0, n, m), minlength=n)
        if deg.min() >= k + 1:
            return deg
    raise HostGenerationError(f"degree floor k+1={k + 1} missed {MAX_DRAWS} times")


def generate_host(n: int, c: float, k: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Edge array (m', 2) of a simple digraph with min in/out degree >= k+1.

    m = c*n slots are paired; m' <= m after erasure.  Raises
    HostGenerationError up front when the degree floor is too rare for
    redrawing to finish, and after MAX_DRAWS failed draws otherwise.
    """
    m = round(c * n)
    if n < 2 or k < 1 or m != c * n:
        raise HostGenerationError(f"need n >= 2, k >= 1 and integer c*n, got "
                                  f"n={n} c={c} k={k}")
    lam = expected_violations(n, c, k)
    if lam > MAX_EXPECTED_VIOLATIONS:
        raise HostGenerationError(
            f"n*P(Pois({c}) <= {k}) = {lam:.3g} exceeds "
            f"{MAX_EXPECTED_VIOLATIONS}: the degree floor would almost never hold")
    for _ in range(MAX_DRAWS):
        out_deg = _floored_degrees(n, m, k, rng)
        in_deg = _floored_degrees(n, m, k, rng)
        tails = np.repeat(np.arange(n, dtype=np.int64), out_deg)
        heads = rng.permutation(np.repeat(np.arange(n, dtype=np.int64), in_deg))
        codes = tails * n + heads
        _, first = np.unique(codes, return_index=True)
        keep = np.zeros(m, dtype=bool)
        keep[first] = True
        keep &= tails != heads
        edges = np.column_stack((tails[keep], heads[keep]))
        if min(np.bincount(edges[:, 0], minlength=n).min(),
               np.bincount(edges[:, 1], minlength=n).min()) >= k + 1:
            return edges
    raise HostGenerationError(f"erasure broke the degree floor {MAX_DRAWS} times")
