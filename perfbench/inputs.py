"""Seeded input generators for the benchmark workloads.

The generators live here, not in the package, so that a change to the
package's own generator cannot silently change what the benchmark measures.
Every generator returns ``(n, pairs)`` with ``pairs`` sorted canonical
``(u, v)`` tuples, ``u < v``; the repair tiling also returns its ordering.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 stream, bit-for-bit the one the package's tests use."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next_u64() % n


def capped_k2(seed: int, n: int = 100_000, cap: int = 8) -> tuple[int, list[tuple[int, int]]]:
    """Degeneracy-2 graph with every degree capped at ``cap`` and vertex 0
    lifted to exactly ``cap`` by fresh leaves.

    With seed 20260819 this is the graph of acceptance criterion 8
    (``tests/test_acceptance.py::_scale_graph``).
    """
    rng = SplitMix64(seed)
    deg = [0] * n
    pairs: list[tuple[int, int]] = []
    for i in range(1, n):
        want = min(2, i)
        picked: set[int] = set()
        guard = 0
        while len(picked) < want and guard < 40:
            c = rng.below(i)
            guard += 1
            if c in picked or deg[c] >= cap:
                continue
            picked.add(c)
        for c in sorted(picked):
            pairs.append((c, i))
            deg[c] += 1
            deg[i] += 1
    while deg[0] < cap:
        pairs.append((0, n))
        deg[0] += 1
        n += 1
    pairs.sort()
    return n, pairs


def k_degenerate(seed: int, n: int, k: int, delta_min: int) -> tuple[int, list[tuple[int, int]]]:
    """Random attachment graph of degeneracy ``k``, the same stream as the
    package's ``generate_k_degenerate(n, k, delta_min, seed)``.

    Vertex ``i`` attaches to ``min(k, i)`` distinct earlier vertices; if the
    maximum degree falls short of ``delta_min``, the first maximum-degree
    vertex receives fresh leaves up to it.
    """
    rng = SplitMix64(seed)
    deg = [0] * n
    pairs: list[tuple[int, int]] = []
    for i in range(1, n):
        want = min(k, i)
        picked: set[int] = set()
        while len(picked) < want:
            picked.add(rng.below(i))
        for c in sorted(picked):
            pairs.append((c, i))
            deg[c] += 1
            deg[i] += 1
    hub = max(range(n), key=lambda v: (deg[v], -v))
    while deg[hub] < delta_min:
        pairs.append((hub, n))
        deg[hub] += 1
        n += 1
    pairs.sort()
    return n, pairs


# The endpoint-recolor fixture of ``tests/conftest.py``: at maximum degree 7
# the last owner (26) puts both reserved edges into its one empty class on
# top of the path 12-25-13, closing a cycle that one recolor repairs.
_FIXTURE_N = 27
_FIXTURE_STARS = (
    (23, (0, 1, 2, 3, 16, 17, 19)),
    (24, (4, 5, 6, 7, 18, 20, 21)),
    (25, (8, 9, 10, 11, 12, 13, 22)),
    (26, (12, 13, 14, 15, 16, 17, 18)),
)
_FIXTURE_ORDER = [23, 24, 25, 26, 12, 13, 16, 17, 18] + [
    x for x in range(23) if x not in (12, 13, 16, 17, 18)
]


def repair_tiling(seed: int, copies: int) -> tuple[int, list[tuple[int, int]], list[int]]:
    """``copies`` disjoint copies of the endpoint-recolor fixture and the
    ordering that sweeps them one copy after another.

    The seed shuffles which block of vertex ids each swept copy occupies.
    The copies are identical, so the edge set is the same for every seed and
    only the sweep order changes; every copy still forces exactly one repair.
    """
    rng = SplitMix64(seed)
    blocks = list(range(copies))
    for i in range(copies - 1, 0, -1):
        j = rng.below(i + 1)
        blocks[i], blocks[j] = blocks[j], blocks[i]
    pairs: list[tuple[int, int]] = []
    order: list[int] = []
    for b in blocks:
        base = b * _FIXTURE_N
        for owner, nbrs in _FIXTURE_STARS:
            pairs.extend((base + u, base + owner) for u in nbrs)
        order.extend(base + x for x in _FIXTURE_ORDER)
    pairs.sort()
    return copies * _FIXTURE_N, pairs, order
