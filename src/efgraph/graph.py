"""Undirected simple graphs in compressed adjacency (CSR) form.

Graphs are loaded from plain edge-list text, built from raw edge arrays, or
generated with a recursive-matrix (R-MAT) sampler. Construction cleans the
input: self-loops and duplicate edges are removed, the edge set is
symmetrized, isolated nodes are dropped, and surviving nodes are relabeled
to a dense 0..n-1 range (sorted by original id, so dense order preserves
original order). The resulting Graph is immutable, its arrays read-only,
and safe to share across workers. `Graph.expand` is the one frontier
gather of the batched kernels: it maps flat lane keys lane*n + v (a
replicate or a BFS source per lane) to their neighbors' keys lane*n + w.
"""
from __future__ import annotations

from dataclasses import dataclass
import io
import os

import numpy as np

__all__ = [
    "Graph",
    "RmatParams",
    "DEFAULT_RMAT_PROBS",
    "load_edge_list",
    "build_graph",
    "generate_rmat",
    "cluster_count",
    "grouped_arange",
    "write_edge_list",
]

# De-facto standard quadrant probabilities for power-law-like R-MATs.
DEFAULT_RMAT_PROBS = (0.57, 0.19, 0.19, 0.05)

_MAX_NODES = 2**31  # neighbor ids are stored as int32
_MAX_SCALE = 31  # 2^scale node ids must fit int32
_MAX_ORIG_ID = 2**63 - 1  # original ids are stored as int64
_WRITE_ROWS = 1 << 16  # edges formatted per write, bounding the text held at once
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)  # 10 .. 10^18: a k-digit id passes k - 1 of them
_RMAT_ROWS = 1 << 16  # R-MAT draws per block of uniforms (7 MB at scale 14); a smaller block leaves glibc's
# mmap threshold lower, which slows a later EF call in the same process (the c05 acceptance gate)
_RMAT_BYTES_PER_EDGE = 128  # a `generate` process peaks at ~99 B per target edge at s18 d16, ~74 at s19, ~66 at s20,
# ~62 at s21 and ~61 at s22; below s18 the process's fixed ~60 MB dominates


@dataclass(frozen=True)
class Graph:
    """Immutable undirected simple graph; its fields cannot be reassigned and its arrays are read-only.

    Attributes:
        n: number of nodes (dense ids 0..n-1)
        m: number of undirected edges
        offsets: int64 array of length n+1; adjacency of v is
            neighbors[offsets[v]:offsets[v+1]], strictly ascending
        neighbors: int32 array of length 2m
        orig_ids: int64 array mapping dense id -> original id (ascending),
            so np.searchsorted(orig_ids, x) is the dense id of original id x
    """

    n: int
    m: int
    offsets: np.ndarray
    neighbors: np.ndarray
    orig_ids: np.ndarray

    def degrees(self) -> np.ndarray:
        """Per-node degree array (int64)."""
        return np.diff(self.offsets)

    def adjacency(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (read-only view)."""
        if not 0 <= v < self.n:
            raise ValueError(f"node id {v} out of range [0, {self.n})")
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def expand(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(neighbor_keys, counts): lane*n + w for each neighbor w of each flat key lane*n + v, in key order, and
        each key's degree. neighbor_keys has the dtype of keys; int32 keys need lanes * n <= 2^31."""
        node = keys % self.n
        starts = self.offsets.take(node)
        counts = self.offsets.take(node + 1) - starts
        return self.neighbors.take(grouped_arange(starts, counts)[0]) + np.repeat(keys - node, counts), counts

    def avg_degree(self) -> float:
        if self.n == 0:
            return 0.0
        return 2.0 * self.m / self.n


@dataclass(frozen=True)
class RmatParams:
    """Parameters of the recursive-matrix generator.

    scale N gives a 2^N x 2^N adjacency matrix; avg_degree M sets the
    pre-cleaning target of floor(2^N * M / 2) undirected edges.
    """

    scale: int
    avg_degree: int
    quadrant_probs: tuple[float, float, float, float] = DEFAULT_RMAT_PROBS
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.scale <= _MAX_SCALE:
            raise ValueError(f"scale must be in [1, {_MAX_SCALE}] (node ids are int32), got {self.scale}")
        if self.avg_degree < 1:
            raise ValueError("avg_degree must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        probs = tuple(float(p) for p in self.quadrant_probs)
        if len(probs) != 4 or not all(0 <= p < np.inf for p in probs):  # NaN fails every comparison
            raise ValueError("quadrant_probs must be 4 nonnegative reals")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"quadrant_probs must sum to 1, got {sum(probs)}")


def load_edge_list(stream) -> np.ndarray:
    """Parse a whitespace-separated edge list into a (k, 2) int64 array.

    Lines starting with '#' or '%' are comments; blank lines are skipped.
    Each remaining line must carry at least two integer tokens in
    [0, 2^63 - 1]; extra tokens (e.g. weights) are ignored. Pairs are
    returned in input order, duplicates and self-loops included. Text in
    write_edge_list's format is parsed as one buffer, other text by line.
    """
    text = stream.read()
    pairs = _parse_plain_pairs(text)
    if pairs is not None:
        return pairs
    us: list[int] = []
    vs: list[int] = []
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        tokens = line.split()
        if len(tokens) < 2:
            raise ValueError(f"line {lineno}: expected at least 2 tokens, got {len(tokens)}")
        try:
            u = int(tokens[0])
            v = int(tokens[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer node id in {tokens[:2]}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative node id in ({u}, {v})")
        if u > _MAX_ORIG_ID or v > _MAX_ORIG_ID:
            raise ValueError(f"line {lineno}: node id in ({u}, {v}) exceeds the int64 maximum {_MAX_ORIG_ID}")
        us.append(u)
        vs.append(v)
    out = np.empty((len(us), 2), dtype=np.int64)
    out[:, 0] = us
    out[:, 1] = vs
    return out


def _parse_plain_pairs(text: str) -> np.ndarray | None:
    """Whole-buffer parse of text made only of newline-ended `<digits> <digits>` lines, else None.

    Tokens of at most 18 digits cannot overflow int64. Anything else is
    left to the line loop, which names the offending line.
    """
    if not text or not text.isascii():
        return None
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    sep = np.flatnonzero((b - 48) > 9)  # uint8 wraps, so this is "not a digit"
    runs = np.diff(sep, prepend=-1) - 1  # digit run before each separator
    # every token is 1-18 digits, followed by a space and a newline in turn
    if b[-1] != 10 or sep.size % 2 or runs.min() < 1 or runs.max() > 18:
        return None
    if (b[sep[0::2]] != 32).any() or (b[sep[1::2]] != 10).any():
        return None
    return np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 2)


def grouped_arange(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, ends): the concatenation of arange(starts[k], starts[k] + lengths[k]) over k, and cumsum(lengths)."""
    ends = np.cumsum(lengths)
    index = np.repeat(starts - ends + lengths, lengths)
    index += np.arange(index.size)
    return index, ends


def _budget_ranges(cost: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Split 0..len(cost) into contiguous ranges of total cost <= budget.

    A range holds at least one item, so a single item over budget forms a
    range of its own.
    """
    cum = np.cumsum(cost)
    ranges = []
    s = 0
    while s < cost.size:
        before = int(cum[s - 1]) if s else 0
        e = max(int(np.searchsorted(cum, before + budget, side="right")), s + 1)
        ranges.append((s, e))
        s = e
    return ranges


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique(a) of a 1-d int array by sort and neighbor mask; numpy 2.4 hashes instead, ~8x slower
    (0.43-0.51 against 0.055-0.060 s on R-MAT s18 d16's 4.2M endpoints in shuffled order)."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def build_graph(edges) -> Graph:
    """Build a cleaned CSR graph from raw (u, v) pairs.

    Self-loops are dropped, edges are symmetrized and deduplicated, nodes
    left without any edge are removed, and the survivors are densely
    relabeled in ascending original-id order, then enter the CSR step that
    generate_rmat ends in too. Degenerate input yields the empty graph.
    Ids must be nonnegative, the domain load_edge_list reads; a negative id
    raises ValueError.
    """
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if arr.min(initial=0) < 0:
        raise ValueError(f"negative node id {arr.min()}; node ids must be >= 0")
    arr = arr[arr[:, 0] != arr[:, 1]]
    orig_ids = _sorted_unique(arr.ravel())
    lo = np.searchsorted(orig_ids, np.minimum(arr[:, 0], arr[:, 1]))
    hi = np.searchsorted(orig_ids, np.maximum(arr[:, 0], arr[:, 1]))
    return _csr(orig_ids, _sorted_unique(lo * orig_ids.size + hi))


def _csr(orig_ids: np.ndarray, codes: np.ndarray) -> Graph:
    """The Graph on nodes orig_ids whose edges are the sorted distinct codes lo * n + hi, lo < hi < n."""
    n = int(orig_ids.size)
    if n >= _MAX_NODES:
        raise ValueError(f"graph too large: {n} nodes exceeds int32 id space")
    # both directions as src * n + dst keys; one sort orders the CSR rows, row v starts at
    # the first key >= v * n, and each key's dst is read in place: no row-id array is formed
    keys = np.concatenate([codes, codes % n * n + codes // n])
    keys.sort()
    offsets = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    keys %= n
    neighbors = keys.astype(np.int32)
    for arr in (offsets, neighbors, orig_ids):
        arr.flags.writeable = False
    return Graph(n=n, m=int(codes.size), offsets=offsets, neighbors=neighbors, orig_ids=orig_ids)


def generate_rmat(params: RmatParams) -> tuple[Graph, bool]:
    """Sample an R-MAT graph; returns (graph, truncated).

    Directed pairs are drawn by recursive quadrant descent on a 2^N x 2^N
    matrix; self-loops are dropped and pairs deduplicated as undirected
    edges until floor(2^N * M / 2) distinct edges exist. The attempt cap is
    20x the target; hitting it returns whatever was accumulated with
    truncated=True. Output is a pure function of params. A target whose
    memory estimate exceeds physical memory is refused before sampling.

    Sampling runs in batches. A batch keeps, in draw order, the first of
    its codes lo * 2^N + hi that are new, as many as the target still
    needs. Its codes are argsorted with numpy's default sort, which is not
    stable and takes a SIMD path where the CPU has one; each run of equal
    codes yields the code once, with its first draw index as the minimum
    of the run's indices. A minimum does not depend on the order of the
    run's ties, so the output is the same whichever path sorted them. The
    new codes are found by binary search in the sorted codes kept so far
    and merged into them. At the end their ids are relabeled by rank among
    those present, and the codes enter build_graph's CSR step directly.
    """
    a, b, c, _ = params.quadrant_probs
    side = 1 << params.scale
    target = (side * params.avg_degree) // 2
    est_bytes = target * _RMAT_BYTES_PER_EDGE
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if est_bytes > memory:
        raise ValueError(
            f"R-MAT target of {target} edges needs about {est_bytes / 2**30:.1f} GiB ({_RMAT_BYTES_PER_EDGE} "
            f"bytes per edge), more than the {memory / 2**30:.1f} GiB of physical memory"
        )
    cap = 20 * target
    rng = np.random.default_rng(params.seed)
    cuts = (a, a + b, a + b + c)

    seen = np.zeros(0, dtype=np.int64)  # sorted distinct codes kept so far
    attempts = 0
    while seen.size < target and attempts < cap:
        need = target - seen.size
        batch = int(min(cap - attempts, max(1024, min(262144, 2 * need))))
        attempts += batch
        codes = _rmat_codes(rng, batch, params.scale, cuts)
        # each distinct code once, with its first draw index: the minimum over its run of ties
        order = np.argsort(codes)
        ranked = codes[order]
        head = np.ones(ranked.size, dtype=bool)
        head[1:] = ranked[1:] != ranked[:-1]
        starts = np.flatnonzero(head)
        uniq = ranked[starts]
        first = np.minimum.reduceat(order, starts)
        # keep the first `need` codes, in draw order, that are new to `seen`
        at = np.searchsorted(seen, uniq)
        fresh = at == seen.size
        fresh[~fresh] = seen[at[~fresh]] != uniq[~fresh]
        if np.count_nonzero(fresh) > need:
            fresh &= first < np.partition(first[fresh], need)[need]
        seen = np.insert(seen, at[fresh], uniq[fresh])  # a linear merge: both are sorted

    # relabel by rank among the ids present (a cumsum over a 2^N mask): monotone, so codes stay sorted and distinct
    lo, hi = seen >> params.scale, seen & (side - 1)
    present = np.zeros(side, dtype=bool)
    present[lo] = present[hi] = True
    dense = np.cumsum(present) - 1
    orig_ids = np.flatnonzero(present)
    return _csr(orig_ids, dense[lo] * orig_ids.size + dense[hi]), seen.size < target


def _rmat_codes(rng: np.random.Generator, draws: int, scale: int, cuts: tuple[float, float, float]) -> np.ndarray:
    """Codes lo * 2^scale + hi of the next `draws` R-MAT draws, in draw order, self-loops dropped.

    A draw is one uniform per level, taken in row blocks of one reused buffer (the same stream as
    one rng.random((draws, scale))). Level j falls in quadrant k = #{cuts <= uniform}: its source
    bit is k >= 2, its target bit k odd, the parity of the three cut tests. A bit matrix with the
    levels right-aligned in 32 columns packs into one big-endian uint32 per draw.
    """
    rows = min(draws, _RMAT_ROWS)
    r = np.empty((rows, scale))
    bits = np.zeros((rows, 32), dtype=bool)  # the 32 - scale pad columns stay 0
    codes = []
    for s in range(0, draws, rows):
        k = min(rows, draws - s)
        rng.random(out=r[:k])
        packed = []
        for cut in cuts:
            np.greater_equal(r[:k], cut, out=bits[:k, 32 - scale :])
            packed.append(np.packbits(bits[:k]).view(">u4"))
        u = packed[1].astype(np.int64)
        v = (packed[0] ^ packed[1] ^ packed[2]).astype(np.int64)
        codes.append((np.minimum(u, v) << scale | np.maximum(u, v))[u != v])
    return np.concatenate(codes)


def cluster_count(g: Graph) -> int:
    """Number of middle-node triplets (i, v, j), i < j both adjacent to v.

    Equals sum over nodes of C(deg(v), 2).
    """
    d = g.degrees()
    return int(np.sum(d * (d - 1) // 2))


def write_edge_list(g: Graph, stream) -> None:
    """Write one undirected edge per line in original-id space.

    Smaller endpoint first; lines sorted numerically by (u, v). The dense
    relabeling is monotone in original ids, so iterating dense ids in order
    yields sorted output directly.
    """
    src = np.repeat(np.arange(g.n), g.degrees())
    up = g.neighbors > src
    us = g.orig_ids[src[up]]
    vs = g.orig_ids[g.neighbors[up]]
    for s in range(0, us.size, _WRITE_ROWS):
        stream.write(_ascii_lines(us[s : s + _WRITE_ROWS], vs[s : s + _WRITE_ROWS]))


def _ascii_lines(us: np.ndarray, vs: np.ndarray) -> str:
    """The text of f"{u} {v}\\n" over the rows, written one decimal place at a time for whole columns."""
    wu, wv = (np.searchsorted(_POWERS_OF_TEN, x, side="right") + 1 for x in (us, vs))  # digit counts
    ends = np.cumsum(wu + wv + 2)
    buf = np.empty(int(ends[-1]), dtype=np.uint8)
    buf[ends - 1] = ord("\n")
    buf[ends - wv - 2] = ord(" ")
    for x, last in ((us, ends - wv - 3), (vs, ends - 2)):
        while x.size:  # the lowest digit of every number left, then drop the numbers it exhausted
            q = x // 10
            buf[last] = (x - q * 10).astype(np.uint8) + ord("0")
            more = q > 0
            x, last = q[more], last[more] - 1
    return buf.tobytes().decode("ascii")
