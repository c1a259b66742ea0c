"""Benchmark inputs and output oracles, written without the package.

Nothing here imports indematch: hosts are generated and outputs are judged
by restating the definitions directly, so a defect in the code under test
cannot make a wrong answer look right, and two commits given the same seed
run on byte-identical inputs.

Hosts travel as lists of (left, right) pairs with left < right.
"""

from __future__ import annotations

import hashlib
import random

Pairs = list[tuple[int, int]]


def double_factorial_odd(n: int) -> int:
    """(2n - 1)!!, the number of perfect matchings on 2n vertices."""
    out = 1
    for i in range(1, 2 * n, 2):
        out *= i
    return out


def indecomposable_counts(n_max: int) -> list[int]:
    """s_1..s_n_max from s_n = (n - 1) * sum(s_i * s_(n-i)), s_1 = 1; index 0 unused."""
    s = [0] * (n_max + 1)
    s[1] = 1
    for n in range(2, n_max + 1):
        s[n] = (n - 1) * sum(s[i] * s[n - i] for i in range(1, n))
    return s


def partner_table(pairs: Pairs) -> list[int]:
    """partner[v] for v in 1..2n; index 0 unused."""
    partner = [0] * (2 * len(pairs) + 1)
    for a, b in pairs:
        partner[a] = b
        partner[b] = a
    return partner


def is_indecomposable(pairs: Pairs) -> bool:
    """No block [lo, hi] of at least two vertices, other than all of them,
    holds the partners of all its vertices."""
    partner = partner_table(pairs)
    top = len(partner) - 1
    for lo in range(1, top + 1):
        low = high = partner[lo]
        for hi in range(lo + 1, top + 1):
            low = min(low, partner[hi])
            high = max(high, partner[hi])
            if low < lo:
                break
            if high <= hi and (lo, hi) != (1, top):
                return False
    return True


def random_indecomposable(rng: random.Random, n: int) -> Pairs:
    """A uniform indecomposable matching on [2n]: uniform matchings are
    drawn until one is indecomposable (about a third are, at n = 80..160)."""
    while True:
        vertices = list(range(1, 2 * n + 1))
        rng.shuffle(vertices)
        pairs = sorted(
            (min(a, b), max(a, b)) for a, b in zip(vertices[::2], vertices[1::2])
        )
        if is_indecomposable(pairs):
            return pairs


def crossing_chain(n: int) -> Pairs:
    """1-3, (2i, 2i+3) for i = 1..n-2, (2n-2, 2n): every edge crosses only
    its neighbours, so no edge is heavily crossed."""
    return [(1, 3)] + [(2 * i, 2 * i + 3) for i in range(1, n - 1)] + [(2 * n - 2, 2 * n)]


def edge_text(pairs: Pairs) -> str:
    return " ".join(f"{a}-{b}" for a, b in pairs)


def digest(hosts: list[Pairs]) -> str:
    """sha256 over the hosts' edge lists, one host per line."""
    text = "\n".join(edge_text(h) for h in hosts)
    return hashlib.sha256(text.encode()).hexdigest()


def _relabel(edges: Pairs) -> set[tuple[int, int]]:
    """The submatching spanned by edges, its endpoints renumbered 1..2k in order."""
    rank = {v: i for i, v in enumerate(sorted(v for e in edges for v in e), start=1)}
    return {(rank[a], rank[b]) for a, b in edges}


def _pattern(kind: str, k: int) -> set[tuple[int, int]]:
    """The three size-k structures on [2k]: k pairwise crossing edges; or a
    nest of k - 1 edges broken by one edge with one end inside the innermost
    nest edge and the other outside the nest, to the right or to the left."""
    if kind == "interleaving":
        return {(i, i + k) for i in range(1, k + 1)}
    if kind == "right":
        return {(k, 2 * k)} | {(i, 2 * k - i) for i in range(1, k)}
    return {(1, k + 1)} | {(i + 1, 2 * k + 1 - i) for i in range(1, k)}


def _splits(edge: tuple[int, int], lo: int, hi: int) -> bool:
    return (lo <= edge[0] <= hi) != (lo <= edge[1] <= hi)


def pin_problems(pins: Pairs, *, proper: bool, top: int | None) -> str | None:
    """Why pins fail to be a pin sequence (proper if asked, ending on vertex
    top if given), or None.  Pin i splits the shadow of pins 1..i-1; a proper
    one also leaves the shadow of pins 1..i-2 unsplit."""
    if not pins:
        return "empty pin sequence"
    if len(set(pins)) != len(pins):
        return "a pin repeats"
    shadows = []
    lo, hi = pins[0]
    for e in pins:
        lo, hi = min(lo, e[0]), max(hi, e[1])
        shadows.append((lo, hi))
    for i in range(1, len(pins)):
        if not _splits(pins[i], *shadows[i - 1]):
            return f"pin {i + 1} does not split the shadow before it"
        if proper and i >= 2 and _splits(pins[i], *shadows[i - 2]):
            return f"pin {i + 1} splits the shadow two steps back"
    if top is not None and top not in pins[-1]:
        return f"last pin misses vertex {top}"
    return None


def certificate_problems(host: Pairs, doc: dict, k: int) -> str | None:
    """Why a JSON certificate fails to show a size-k structure in host, or None."""
    kind = doc.get("kind")
    edges = [tuple(e) for e in doc.get("edges", ())]
    if doc.get("k") != k or doc.get("size") != k or len(edges) != k:
        return f"certificate for k={doc.get('k')} size={doc.get('size')}, wanted size {k}"
    if doc.get("host") != edge_text(host):
        return "certificate names another host"
    if not set(edges) <= set(host):
        return "certificate edge outside the host"
    if len(set(edges)) != k:
        return "certificate repeats an edge"
    if kind == "interleaving":
        ok = _relabel(edges) == _pattern("interleaving", k)
    elif kind == "broken_nesting":
        ok = doc.get("side") in ("left", "right") and _relabel(edges) == _pattern(
            doc["side"], k
        )
    elif kind == "proper_pin_sequence":
        return pin_problems(edges, proper=True, top=None)
    else:
        return f"certificate kind {kind!r} is not a found structure"
    return None if ok else f"edges do not form a {kind}"
