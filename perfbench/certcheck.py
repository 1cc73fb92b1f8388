"""Packing check written apart from hampack.verify.

A certificate passes when every cycle is a permutation of range(n),
every consecutive pair including the closing one is a host edge (found
by lookup in the sorted pair codes), the edge ids name exactly those
pairs, and no ordered pair is used by two cycles.
"""

from __future__ import annotations

import numpy as np


def packing_error(n: int, edges: np.ndarray, cycles, edge_ids) -> str | None:
    """None when the cycles form a valid packing of the host, else why not.

    edges is the host's (m, 2) edge array; edge_ids holds per cycle the
    edge index of each step cycle[i] -> cycle[i+1].
    """
    edges = np.asarray(edges, dtype=np.int64)
    host = np.sort(edges[:, 0] * n + edges[:, 1])
    used = []
    for j, cyc in enumerate(cycles):
        cyc = np.asarray(cyc, dtype=np.int64)
        if cyc.shape != (n,) or not np.array_equal(np.sort(cyc), np.arange(n)):
            return f"cycle {j} is not a permutation of range({n})"
        nxt = np.roll(cyc, -1)
        codes = cyc * n + nxt
        pos = np.minimum(np.searchsorted(host, codes), len(host) - 1)
        missing = np.nonzero(host[pos] != codes)[0]
        if missing.size:
            i = int(missing[0])
            return f"cycle {j} step {cyc[i]}->{nxt[i]} is not a host edge"
        ids = np.asarray(edge_ids[j], dtype=np.int64)
        if (ids.shape != (n,) or ids.min() < 0 or ids.max() >= len(edges)
                or not np.array_equal(edges[ids], np.column_stack((cyc, nxt)))):
            return f"cycle {j} edge ids do not match its steps"
        used.append(codes)
    if used:
        codes = np.concatenate(used)
        if len(np.unique(codes)) != len(codes):
            return "an ordered pair is used by two cycles"
    return None
