"""Independent answers for checking permpat's outputs.

Nothing here imports permpat: every answer the benchmark accepts is
compared with a computation made by this module, or with a property the
method must have.  Patterns are (values, blocks) with 1-based values and
1-based inclusive blocks; texts are tuples of 1..n; embeddings are tuples
of 1-based positions.
"""

from __future__ import annotations

from itertools import combinations


def is_embedding(pv, blocks, tv, emb) -> bool:
    """Order-isomorphism on every position pair plus adjacency in every block."""
    k = len(pv)
    if len(emb) != k or emb[0] < 1 or emb[-1] > len(tv):
        return False
    if any(b <= a for a, b in zip(emb, emb[1:])):
        return False
    for a, b in blocks:
        if any(emb[i] + 1 != emb[i + 1] for i in range(a - 1, b - 1)):
            return False
    vals = [tv[p - 1] for p in emb]
    return all(
        (pv[i] < pv[j]) == (vals[i] < vals[j]) for i in range(k) for j in range(i + 1, k)
    )


def _neighbours(pv):
    """For each index i, the earlier index holding the largest smaller value
    and the one holding the smallest larger value (-1 when there is none).
    Checking a placement against these two alone keeps every earlier pair
    in order."""
    lo, hi = [], []
    for i, v in enumerate(pv):
        below = [j for j in range(i) if pv[j] < v]
        above = [j for j in range(i) if pv[j] > v]
        lo.append(max(below, key=lambda j: pv[j]) if below else -1)
        hi.append(min(above, key=lambda j: pv[j]) if above else -1)
    return lo, hi


def embeddings(pv, blocks, tv, first_only=False) -> list[tuple[int, ...]]:
    """Every embedding in lexicographic order (or only the first), found by an
    iterative search with nearest-neighbour value checks."""
    k, n = len(pv), len(tv)
    if k > n:
        return []
    lo, hi = _neighbours(pv)
    glued = [False] * k  # glued[i]: index i must sit right after index i-1
    for a, b in blocks:
        for i in range(a, b):
            glued[i] = True
    pos = [-1] * k
    out: list[tuple[int, ...]] = []
    i = 0
    nxt = 0  # next text index to try for pattern index i
    while i >= 0:
        last = n - (k - i)
        if glued[i]:
            last = min(last, pos[i - 1] + 1)
        placed = False
        c = nxt
        while c <= last:
            v = tv[c]
            if (lo[i] < 0 or tv[pos[lo[i]]] < v) and (hi[i] < 0 or tv[pos[hi[i]]] > v):
                placed = True
                break
            c += 1
        if not placed:
            i -= 1
            if i >= 0:
                nxt = pos[i] + 1
            continue
        pos[i] = c
        if i == k - 1:
            out.append(tuple(p + 1 for p in pos))
            if first_only:
                return out
            nxt = c + 1
            continue
        i += 1
        nxt = c + 1
    return out


def brute_embeddings(pv, blocks, tv) -> list[tuple[int, ...]]:
    """Every embedding, by filtering all C(n, k) position tuples."""
    return [
        tuple(p + 1 for p in combo)
        for combo in combinations(range(len(tv)), len(pv))
        if is_embedding(pv, blocks, tv, tuple(p + 1 for p in combo))
    ]


def independent_set(l: int, edges, k: int) -> tuple[int, ...] | None:
    """The lexicographically first k-subset of 1..l spanning no edge, or None."""
    adj = {v: set() for v in range(1, l + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    chosen: list[int] = []

    def grow(start: int) -> bool:
        if len(chosen) == k:
            return True
        for v in range(start, l + 1):
            if l - v + 1 < k - len(chosen):
                return False
            if not adj[v].intersection(chosen):
                chosen.append(v)
                if grow(v + 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if grow(1) else None


def parse_bracket(text: str) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Read a bracket-syntax pattern such as "[3 1] 2" as (values, blocks)."""
    values: list[int] = []
    blocks: list[tuple[int, int]] = []
    start = None
    for tok in text.replace("[", " [ ").replace("]", " ] ").split():
        if tok == "[":
            start = len(values) + 1
        elif tok == "]":
            blocks.append((start, len(values)))
        else:
            values.append(int(tok))
    return tuple(values), tuple(blocks)


def fo_lines(pv, blocks, tv) -> list[str]:
    """The lines an exported fo instance of (pattern, text) must hold, as a
    sorted list (the header first)."""
    n, k = len(tv), len(pv)
    lines = [f"tl {x} {y}" for x in range(1, n + 1) for y in range(1, n + 1)
             if tv[x - 1] < tv[y - 1]]
    lines += [f"s {x} {x + 1}" for x in range(1, n)]
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            lines.append(f"{'pos' if pv[i - 1] < pv[j - 1] else 'neg'} {i} {j}")
    lines += [f"adj {i}" for a, b in blocks for i in range(a, b)]
    return [f"fo {n} {k}"] + sorted(lines)


def fo_line_count(n: int, k: int, blocks) -> int:
    """1 + n(n-1)/2 + (n-1) + k(k-1)/2 + |adj|."""
    adj = sum(b - a for a, b in blocks)
    return 1 + n * (n - 1) // 2 + (n - 1) + k * (k - 1) // 2 + adj
