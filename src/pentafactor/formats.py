"""graph6 / sparse6 / cubicmg parsing and serialization.

graph6 covers simple graphs only; multigraphs use the sidecar ``cubicmg``
text format (header ``cubicmg <n> <m>``, then ``<u> <v>`` lines, 0-indexed).
sparse6 is accepted read-only.
"""

from __future__ import annotations

from .errors import LoopEdge, ParseError
from .graphs import CubicGraph, MultiGraph

_G6_HEADER = ">>graph6<<"
_S6_HEADER = ">>sparse6<<"


def parse_graph(text: str) -> CubicGraph:
    """Parse graph6, sparse6, or cubicmg text into a validated CubicGraph."""
    s = text.strip()
    if not s:
        raise ParseError("empty input")
    if s.startswith("cubicmg"):
        return _parse_cubicmg(s)
    if s.startswith(_S6_HEADER):
        s = s[len(_S6_HEADER):].strip()
    elif s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    if "\n" in s:
        raise ParseError("expected a single graph6/sparse6 line")
    try:
        if s.startswith(":"):
            n, edges = _sparse6_decode(s)
        else:
            n, edges = _graph6_decode(s)
    except ParseError:
        raise
    except Exception as exc:  # malformed bit streams etc.
        raise ParseError(f"malformed graph text: {exc}") from exc
    return CubicGraph(edges, vertices=range(n))


def serialize_graph(g: CubicGraph) -> str:
    """graph6 if the graph is simple, cubicmg otherwise.

    Vertices are relabeled to 0..n-1 in increasing label order, so
    parse(serialize(g)) is the same graph up to that monotone relabeling.
    """
    if g.is_simple():
        return graph6_encode(g)
    return cubicmg_encode(g)


# -- cubicmg -----------------------------------------------------------------


def _parse_cubicmg(s: str) -> CubicGraph:
    lines = [ln.strip() for ln in s.splitlines() if ln.strip()]
    head = lines[0].split()
    if len(head) != 3 or head[0] != "cubicmg":
        raise ParseError("bad cubicmg header")
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError as exc:
        raise ParseError("bad cubicmg header counts") from exc
    if len(lines) - 1 != m:
        raise ParseError(f"cubicmg header promises {m} edges, got {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"bad cubicmg edge line: {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge endpoint out of range: {ln!r}")
        edges.append((u, v))
    return CubicGraph(edges, vertices=range(n))


def cubicmg_encode(g: MultiGraph) -> str:
    relabel = {v: i for i, v in enumerate(g.vertices)}
    pairs = sorted(
        tuple(sorted((relabel[u], relabel[v]))) for u, v in (g.endpoints(e) for e in g.edge_ids)
    )
    lines = [f"cubicmg {g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in pairs]
    return "\n".join(lines)


# -- graph6 ------------------------------------------------------------------


def _encode_n(n: int) -> str:
    if n < 0:
        raise ParseError("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(chr(((n >> s) & 0x3F) + 63) for s in (12, 6, 0))
    raise ParseError("graphs beyond 258047 vertices are not supported")


def _decode_n(s: str) -> tuple[int, int]:
    """Return (n, chars consumed)."""
    if not s:
        raise ParseError("empty graph6 body")
    c = ord(s[0]) - 63
    if c < 0 or ord(s[0]) > 126:
        raise ParseError("invalid graph6 character")
    if c != 63:
        return c, 1
    if len(s) < 4:
        raise ParseError("truncated graph6 vertex count")
    vals = [ord(ch) - 63 for ch in s[1:4]]
    if any(v < 0 or v > 63 for v in vals):
        raise ParseError("invalid graph6 character in vertex count")
    return (vals[0] << 12) | (vals[1] << 6) | vals[2], 4


def graph6_encode(g: MultiGraph) -> str:
    if not g.is_simple():
        raise ParseError("graph6 cannot encode parallel edges")
    relabel = {v: i for i, v in enumerate(g.vertices)}
    n = g.n
    adj = {tuple(sorted((relabel[u], relabel[v]))) for u, v in (g.endpoints(e) for e in g.edge_ids)}
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in adj else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [
        chr((bits[k] << 5 | bits[k + 1] << 4 | bits[k + 2] << 3
             | bits[k + 3] << 2 | bits[k + 4] << 1 | bits[k + 5]) + 63)
        for k in range(0, len(bits), 6)
    ]
    return _encode_n(n) + "".join(chars)


def _graph6_decode(s: str) -> tuple[int, list[tuple[int, int]]]:
    n, used = _decode_n(s)
    body = s[used:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ParseError(f"graph6 body length {len(body)}, expected {need}")
    bits: list[int] = []
    for ch in body:
        val = ord(ch) - 63
        if val < 0 or val > 63:
            raise ParseError("invalid graph6 character")
        bits.extend((val >> k) & 1 for k in (5, 4, 3, 2, 1, 0))
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return n, edges


# -- sparse6 (read-only) -------------------------------------------------------


def _sparse6_decode(s: str) -> tuple[int, list[tuple[int, int]]]:
    if not s.startswith(":"):
        raise ParseError("sparse6 must start with ':'")
    n, used = _decode_n(s[1:])
    body = s[1 + used:]
    bits: list[int] = []
    for ch in body:
        val = ord(ch) - 63
        if val < 0 or val > 63:
            raise ParseError("invalid sparse6 character")
        bits.extend((val >> k) & 1 for k in (5, 4, 3, 2, 1, 0))
    k = max(1, (n - 1).bit_length()) if n > 1 else 1
    edges: list[tuple[int, int]] = []
    v = 0
    pos = 0
    while pos + 1 + k <= len(bits):
        b = bits[pos]
        x = 0
        for t in range(k):
            x = (x << 1) | bits[pos + 1 + t]
        pos += 1 + k
        if b:
            v += 1
        if v >= n or x >= n:
            break
        if x > v:
            v = x
        else:
            if x == v:
                raise LoopEdge(f"sparse6 encodes a loop at vertex {v}")
            edges.append((x, v))
    return n, edges
