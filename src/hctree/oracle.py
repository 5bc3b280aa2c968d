"""Exact finite-volume cross-checks on small balls of the Cayley tree.

Everything here is deliberately independent of the solver formulas: admissible
configurations are all enumerated, partition functions are also computed by a
bottom-up two-state recursion, and the two paths are compared wherever both
are feasible. Kolmogorov consistency of the finite-volume measures and the
conditional child distributions are extracted by brute force, and the tests
check them against their own transition matrices of the chain.

The enumeration writes a configuration as an int64 bit mask, vertex v at bit
n-1-v, grown one vertex at a time up to the last level, which is summed, not
listed: a table of at most _BLOCK_ROWS // 2 cells groups the extensions each
pattern of their parents' spins allows by key, and each prefix gives one (key,
count) row per key, in blocks of at most _BLOCK_ROWS rows (a ball of 2**n <=
_BLOCK_ROWS states fits one block ungrouped). Keys add over disjoint bits: the
mask itself lists the configurations, 0 counts them, and every sum keys them
by weight class (label, occupied vertices and occupied leaves of each boundary
weight) and adds count * weight per class in ascending key order, whatever the
block size. Arithmetic is generic over the numeric type: floats give float
results, and `fractions.Fraction` or int activities and boundary weights give
exact partition functions and marginals. The sampler stores spins vertex-major
and fills them one tree level at a time.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat
from typing import Any

import numpy as np

from .core import (
    DomainError,
    InternalCheckError,
    ModelParams,
    SizeCapError,
    _check_int,
    _check_positive,
)

__all__ = [
    "ENUMERATION_VERTEX_CAP",
    "FiniteBall",
    "RootDegree",
    "SampleResult",
    "conditional_child_distribution",
    "consistency_check",
    "count_admissible",
    "enumerate_admissible",
    "hard_core_violations",
    "partition_function",
    "root_marginal",
    "sample_tree_chain",
]

# 2**40 raw states is the worst case the enumeration is allowed to face, and
# a configuration's bit mask (one bit per vertex) stays within an int64
ENUMERATION_VERTEX_CAP = 40

# masks per enumeration block, and uniforms per sampler row block; results do
# not depend on either
_BLOCK_ROWS = 1 << 14
_SAMPLE_BLOCK = 1 << 18
# enumeration, and the "auto" modes' cross-check by it, stop at this many
# configurations; FiniteBall(2, 4) has 8,143,397, FiniteBall(3, 3) 2.3e9
_ENUMERATION_CONFIGURATION_CAP = 1 << 24
# FiniteBall(2, 19) has 1,048,575 vertices and its lists peak near 264 MB
_BALL_VERTEX_CAP = 1 << 20
# int8 spins the sampler holds at once: 256 MB
_SAMPLE_SPIN_CAP = 1 << 28


class RootDegree(str, Enum):
    """Whether the root keeps all k+1 tree neighbours as children or only k.

    Half matches the per-child-set recursion (every vertex, root included,
    has k children below it), Full matches the graph ball of the order-k
    Cayley tree whose root has degree k+1.
    """

    FULL = "full"
    HALF = "half"


class FiniteBall:
    """Rooted ball of given depth, stored as flat breadth-first arrays.

    Vertex 0 is the root; every vertex's parent has a smaller index, so a
    breadth-first prefix of the vertex list is itself a rooted subtree. A
    ball of over 2**20 vertices raises SizeCapError before anything is built.
    """

    def __init__(self, k: int, depth: int, root_degree: RootDegree = RootDegree.HALF):
        _check_int("k", k, 1)
        _check_int("depth", depth, 0)
        root_degree = RootDegree(root_degree)
        n = _ball_size(k, depth, root_degree)
        if n is None or n > _BALL_VERTEX_CAP:
            got = f"a ball of depth {depth}" if n is None else n
            raise SizeCapError(f"a ball may have at most {_BALL_VERTEX_CAP} vertices, got {got}")
        self.k, self.depth, self.root_degree = k, depth, root_degree
        # levels hold 1, top, top*k, ... vertices; below level 1 every vertex
        # has k children, numbered in the order of their parents
        top = k + 1 if root_degree is RootDegree.FULL else k
        first_leaf = n - top * k ** (depth - 1) if depth else 0
        self.parent = (-1, *[0 if v <= top else (v - top - 1) // k + 1 for v in range(1, n)])
        self.level = (0, *chain.from_iterable(repeat(lev, top * k ** (lev - 1))
                                              for lev in range(1, depth + 1)))
        self.children = (tuple(range(1, top + 1)) if depth else (),
                         *[tuple(range(top + 1 + (v - 1) * k, top + 1 + v * k))
                           if v < first_leaf else () for v in range(1, n)])
        self.leaves = tuple(range(first_leaf, n))
        self.n_vertices = n

    def __repr__(self) -> str:
        return (
            f"FiniteBall(k={self.k}, depth={self.depth}, "
            f"root_degree={self.root_degree.value!r}, n_vertices={self.n_vertices})"
        )


def _ball_size(k: int, depth: int, root_degree: RootDegree) -> int | None:
    """Vertices of FiniteBall(k, depth, root_degree), from the closed form.

    None for k >= 2 above depth 40: such a ball has over 2**40 vertices,
    more than any cap here, and k**depth need not be computed.
    """
    fanout = k + 1 if root_degree is RootDegree.FULL else k
    if k == 1:  # a path below the root's children
        return 1 + fanout * depth
    if depth > ENUMERATION_VERTEX_CAP:
        return None
    return 1 + fanout * (k ** depth - 1) // (k - 1)


def _vertex_cap_error(got) -> SizeCapError:
    return SizeCapError(f"enumeration supports at most {ENUMERATION_VERTEX_CAP} vertices, "
                        f"got {got}")


def _enumeration_refusal(ball: FiniteBall, count: int | None = None) -> SizeCapError | None:
    """Why the ball is too large to enumerate, or None: over 40 vertices (tested
    first, in O(1)) or over 2**24 configurations as the recursion counts them
    (count, where the caller has it at hand)."""
    if ball.n_vertices > ENUMERATION_VERTEX_CAP:
        return _vertex_cap_error(ball.n_vertices)
    if count is None:
        count = _count_recursion(ball)
    if count > _ENUMERATION_CONFIGURATION_CAP:
        return SizeCapError(f"enumeration supports at most {_ENUMERATION_CONFIGURATION_CAP} "
                            f"configurations, got {count}")
    return None


def _require_enumerable(ball: FiniteBall) -> None:
    if (refusal := _enumeration_refusal(ball)) is not None:
        raise refusal


def _require_ball_enumerable(k: int, depth: int, root_degree: RootDegree) -> None:
    """The vertex cap of _require_enumerable for FiniteBall(k, depth,
    root_degree), from the closed-form vertex count, before the ball is built."""
    _check_int("depth", depth, 0)
    n = _ball_size(k, depth, root_degree)
    if n is None or n > ENUMERATION_VERTEX_CAP:
        raise _vertex_cap_error(f"a ball of depth {depth}" if n is None else n)


def _extension_table(n_vertices: int, parent: Sequence[int], key):
    """(tail, keys, counts, offsets): a prefix whose tail parents p0..p1 have
    the spins b (the low p1-p0+1 bits of mask >> (n_vertices-1-p1)) extends to
    counts[i] tail masks of key keys[i], for i in offsets[b]:offsets[b+1], the
    keys distinct and ascending where 2**n_vertices > _BLOCK_ROWS, else one
    per mask, ascending. The tail goes as low as keeps the cells, 2**(p1-p0+1)
    patterns times 2**(n_vertices-tail) values, within _BLOCK_ROWS // 2."""
    tail, p1 = n_vertices, parent[n_vertices - 1]
    while tail - 1 > max(0, p1) and (
            4 << n_vertices - tail + p1 - parent[tail - 1]) <= _BLOCK_ROWS // 2:
        tail -= 1
    spins = np.arange(1 << p1 - parent[tail] + 1 if tail < n_vertices else 1)[:, None]
    parents = np.array(parent[tail:n_vertices], dtype=np.int64)
    forbidden = np.bitwise_or.reduce(
        (spins >> p1 - parents & 1) << n_vertices - 1 - np.arange(tail, n_vertices), axis=1)
    pattern, values = np.nonzero(np.arange(1 << n_vertices - tail) & forbidden[:, None] == 0)
    keys, counts = key(values), np.ones(len(values), dtype=np.int64)
    if 1 << n_vertices > _BLOCK_ROWS:  # else one block lists them all: grouping saves nothing
        order = np.lexsort((keys, pattern))  # each pattern has a key: all its tail free
        first, counts = _runs(pattern[order], keys[order])
        pattern, keys = pattern[order[first]], keys[order[first]]
    return tail, keys, counts, np.searchsorted(pattern, np.arange(len(spins) + 1))


def _key_blocks(n_vertices: int, parent: Sequence[int], key):
    """Yield the admissible configurations of vertices 0..n_vertices-1 as
    blocks (keys, counts) of at most _BLOCK_ROWS rows, counts[i] of them with
    the key keys[i]. key maps int64 bit masks, vertex v at bit n_vertices-1-v,
    to int64 keys, and key(a | b) == key(a) + key(b) wherever a & b == 0.

    Admissible means no occupied vertex has an occupied parent. Prefixes, the
    masks of the vertices before the tail of _extension_table, grow one vertex
    at a time, ascending, and each prefix m gives a row key(m) + keys[i] per
    row i of its pattern's table: with key the mask, the ascending masks.
    """
    rows = _BLOCK_ROWS
    tail, keys, counts, offsets = _extension_table(n_vertices, parent, key)
    shift, spins = n_vertices - 1 - parent[n_vertices - 1], len(offsets) - 2
    pending = [(1, np.array([0, 1 << n_vertices - 1], dtype=np.int64))]  # (next vertex, masks)
    while pending:
        first, masks = pending.pop()
        for v in range(first, tail):
            # row i holds m and m|bit; m|bit is dropped where the parent is occupied
            pairs = np.empty((len(masks), 2), dtype=np.int64)
            pairs[:, 0] = masks
            np.bitwise_or(masks, 1 << (n_vertices - 1 - v), out=pairs[:, 1])
            keep = np.ones((len(masks), 2), dtype=bool)
            np.equal(masks & 1 << (n_vertices - 1 - parent[v]), 0, out=keep[:, 1])
            masks = pairs[keep]
            if len(masks) > rows:
                pending.extend((v + 1, masks[i:i + rows].copy())
                               for i in reversed(range(rows, len(masks), rows)))
                masks = masks[:rows]
        pattern = masks >> shift & spins
        starts, ends, prefix_keys = offsets[pattern], offsets[pattern + 1], key(masks)
        done = np.concatenate(([0], np.cumsum(ends - starts)))  # rows before each prefix
        lo = 0
        while lo < len(masks):
            hi = int(np.searchsorted(done, done[lo] + rows, "right")) - 1
            sizes = ends[lo:hi] - starts[lo:hi]
            # keys[starts[i]:ends[i]] for each prefix i in turn
            at = np.repeat(starts[lo:hi] - done[lo:hi], sizes) + np.arange(done[lo], done[hi])
            yield np.repeat(prefix_keys[lo:hi], sizes) + keys[at], counts[at]
            lo = hi


def enumerate_admissible(ball: FiniteBall):
    """Yield every admissible configuration of the ball in vertex order."""
    _require_enumerable(ball)
    shifts = np.arange(ball.n_vertices - 1, -1, -1)
    for masks, _ in _key_blocks(ball.n_vertices, ball.parent, lambda masks: masks):
        yield from map(tuple, ((masks[:, None] >> shifts) & 1).tolist())


def _count_enumeration(ball: FiniteBall) -> int:  # keyed by 0, the counts sum to the total
    return sum(int(c.sum()) for _, c in _key_blocks(ball.n_vertices, ball.parent, np.zeros_like))


def _count_recursion(ball: FiniteBall) -> int:
    # unit activity and boundary weights count configurations, in exact ints
    return sum(_partition_recursion(ball, 1, dict.fromkeys(ball.leaves, 1)))


def count_admissible(ball: FiniteBall, method: str = "auto") -> int:
    """Number of admissible configurations, exactly.

    method: "enumeration" (every configuration counted, capped at 40
    vertices and 2**24 configurations), "recursion" (per-subtree
    free/occupied counts, any size), or "auto" which runs the recursion and,
    within the enumeration's caps, cross-checks it against the enumeration.
    """
    if method == "enumeration":
        _require_enumerable(ball)
        return _count_enumeration(ball)
    if method not in ("recursion", "auto"):
        raise DomainError(f"unknown counting method {method!r}")
    total = _count_recursion(ball)
    if method == "auto" and _enumeration_refusal(ball, total) is None:
        if (check := _count_enumeration(ball)) != total:
            raise InternalCheckError(
                f"admissible-count mismatch: enumeration {check}, recursion {total}")
    return total


def _check_weight(name: str, value) -> None:
    """value > 0 and finite; ints and Fractions pass, NaN fails the comparison."""
    if not value > 0 or value == math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")


def _vertex_values(ball: FiniteBall, assignment) -> list[Any]:
    """Normalize a scalar / sequence / mapping to a per-vertex list."""
    if isinstance(assignment, Mapping):
        vec = [assignment[v] for v in range(ball.n_vertices)]
    elif hasattr(assignment, "__len__") and not isinstance(assignment, (str, bytes)):
        if len(assignment) != ball.n_vertices:
            raise DomainError(
                "per-vertex assignment must cover all "
                f"{ball.n_vertices} vertices, got {len(assignment)}"
            )
        vec = list(assignment)
    else:
        vec = [assignment] * ball.n_vertices
    for v, z in enumerate(vec):
        _check_weight(f"assignment at vertex {v}", z)
    return vec


def _leaf_values(ball: FiniteBall, boundary_z) -> dict[int, Any]:
    """Normalize a scalar / sequence / mapping boundary weight to {leaf: z}."""
    if isinstance(boundary_z, Mapping):
        out = {v: boundary_z[v] for v in ball.leaves}
        for v, z in out.items():
            _check_weight(f"boundary weight at vertex {v}", z)
        return out
    vec = _vertex_values(ball, boundary_z)
    return {v: vec[v] for v in ball.leaves}


def _grouped_sums(n_vertices: int, parent: Sequence[int], lam, leaves: Mapping[int, Any],
                  shift: int) -> dict[int, Any]:
    """{label: weight sum of the configurations with mask >> shift == label}.

    Configurations are counted exactly per key: label, occupied vertices and
    occupied leaves of each distinct boundary weight. The last tree level is
    not listed: _key_blocks sums it per pattern of its parents' spins from a
    table of its extensions' keys and counts. Each key's weight is formed once
    in the inputs' own arithmetic, and each label adds count * weight in
    ascending key order, so no sum depends on the block size. Labels come
    ascending, each finished once the enumeration has passed it.
    """
    # (type, weight) -> bits of its leaves; the type keeps an int apart from an equal Fraction
    classes: dict[tuple[type, Any], int] = {}
    for v, z in leaves.items():
        classes[type(z), z] = classes.get((type(z), z), 0) | 1 << (n_vertices - 1 - v)
    # the key's bit fields after the label: occupied vertices, then each
    # class's occupied leaves; on the balls under the caps it needs at most 46 bits
    tops = [n_vertices, *(bits.bit_count() for bits in classes.values())]
    widths = [top.bit_length() for top in tops]
    low = sum(widths)
    if n_vertices - shift + low > 63:
        raise InternalCheckError("group key does not fit in an int64")
    # float64 only where every factor is a float (same rounding); exact ones stay Python objects
    bases = (lam, *(z for _, z in classes))
    dtype = float if all(isinstance(x, float) for x in bases) else object
    powers = []
    for base, top in zip(bases, tops):
        try:
            powers.append(np.array([base ** j for j in range(top + 1)], dtype=dtype))
        except OverflowError:  # a float power past the float range
            raise OverflowError(f"weight {base!r} to the power {top} overflows a float; "
                                "int or Fraction weights have no such limit") from None
    sums: dict[int, Any] = {}

    def finish(keys, counts):
        occupied, *per_class = (keys >> sum(widths[i + 1:]) & (1 << width) - 1
                                for i, width in enumerate(widths))
        w = powers[0][occupied]
        for z_powers, j in zip(powers[1:], per_class):
            np.multiply(w, z_powers[j], out=w, where=j > 0)
        # a row per label, for the labels of one key count at a time; np.cumsum adds in order
        terms = counts * w
        first, size = _runs(keys >> low)
        label_sums = np.empty(len(first), dtype=w.dtype)
        for width in np.unique(size).tolist():
            rows = np.flatnonzero(size == width)
            label_sums[rows] = terms[first[rows, None] + np.arange(width)].cumsum(axis=1)[:, -1]
        sums.update(zip((keys[first] >> low).tolist(), label_sums.tolist()))

    def key(masks):  # adds over disjoint bits: no field overflows into the next
        keys = masks >> shift
        for width, bits in zip(widths, (-1, *classes.values())):  # -1: every vertex
            keys = keys << width | np.bitwise_count(masks & bits)
        return keys

    parts = []  # (keys, counts) of the labels not yet finished
    for block in _key_blocks(n_vertices, parent, key):
        parts.append(block)  # its first row has its smallest label, and its last its largest
        passed = block[0][-1] >> low << low  # keys below it have all been seen
        if parts[0][0][0] < passed:
            keys, counts = _merge_counts(parts)
            done = int(np.searchsorted(keys, passed))
            finish(keys[:done], counts[:done])
            parts = [(keys[done:], counts[done:])]
        # merged as a binary counter carries: each key takes part in a log of merges
        while len(parts) > 1 and len(parts[-1][0]) >= len(parts[-2][0]):
            parts[-2:] = [_merge_counts(parts[-2:])]
    finish(*_merge_counts(parts))
    return sums


def _merge_counts(parts):
    """(unique keys ascending, counts) summed over several (keys, counts) pairs."""
    keys, counts = map(np.concatenate, zip(*parts))
    order = np.argsort(keys, kind="stable")
    first, _ = _runs(keys := keys[order])
    return keys[first], np.add.reduceat(counts[order], first)


def _runs(*columns):
    """(first row, length) of each run of equal rows, the rows sorted by the columns."""
    ends = np.ones(len(columns[0]) + 1, dtype=bool)  # a run ends before each True
    ends[1:-1] = np.any([c[1:] != c[:-1] for c in columns], axis=0)
    bounds = np.flatnonzero(ends)
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _partition_recursion(ball: FiniteBall, lam, leaves: Mapping[int, Any]):
    """Per subtree: (value given vertex free, value given vertex occupied)."""
    free, occ = [0] * ball.n_vertices, [0] * ball.n_vertices
    for v in range(ball.n_vertices - 1, -1, -1):
        f, o = 1, (lam if ball.children[v] else lam * leaves[v])
        for c in ball.children[v]:
            f, o = f * (free[c] + occ[c]), o * free[c]
        free[v], occ[v] = f, o
    return free[0], occ[0]


def partition_function(ball: FiniteBall, lam, boundary_z, method: str = "auto"):
    """Finite-volume normalizing constant with (1, z) boundary weights.

    Occupied vertices contribute a factor lam; occupied leaves additionally
    contribute their boundary weight z. The depth-0 ball degenerates to a
    single vertex that is both root and boundary, giving Z = 1 + lam*z; this
    convention is a documented choice, not forced by the recursion.

    method: "enumeration", "recursion", or "auto" which runs the recursion
    and, on at most 40 vertices and 2**24 configurations, cross-checks it
    against the enumeration.
    """
    _check_weight("activity", lam)
    leaves = _leaf_values(ball, boundary_z)
    if method == "enumeration":
        _require_enumerable(ball)
        return _grouped_sums(ball.n_vertices, ball.parent, lam, leaves, ball.n_vertices)[0]
    if method not in ("recursion", "auto"):
        raise DomainError(f"unknown partition method {method!r}")
    total = sum(_partition_recursion(ball, lam, leaves))
    if method == "auto" and _enumeration_refusal(ball) is None:
        check = _grouped_sums(ball.n_vertices, ball.parent, lam, leaves, ball.n_vertices)[0]
        denom = max(abs(total), abs(check))
        if denom > 0 and abs(total - check) > 1e-12 * denom:
            raise InternalCheckError(
                f"partition-function mismatch: enumeration {check}, recursion {total}")
    return total


def root_marginal(ball: FiniteBall, lam, boundary_z, method: str = "recursion"):
    """Probability that the root is occupied under the finite-volume measure."""
    _check_weight("activity", lam)
    leaves = _leaf_values(ball, boundary_z)
    if method == "enumeration":
        _require_enumerable(ball)
        n = ball.n_vertices
        free, occupied = _grouped_sums(n, ball.parent, lam, leaves, n - 1).values()  # root spin
        return occupied / (free + occupied)
    if method != "recursion":
        raise DomainError(f"unknown marginal method {method!r}")
    f, o = _partition_recursion(ball, lam, leaves)
    return o / (f + o)


def consistency_check(ball: FiniteBall, lam, z_assignment) -> float:
    """Largest violation of the marginalization identity between depths.

    The depth-n measure (boundary weights taken from z_assignment at the
    leaves) is summed over the leaf spins and compared, configuration by
    configuration, with the depth-(n-1) measure built from z_assignment one
    level up. The return value is exactly zero-ish only when z_assignment
    solves the boundary-law recursion vertex-wise at level n-1.
    """
    if ball.depth < 1:
        raise DomainError("consistency check needs depth >= 1")
    _check_weight("activity", lam)
    _require_enumerable(ball)
    zs = _vertex_values(ball, z_assignment)

    n = ball.n_vertices
    m = n - len(ball.leaves)  # the leaves come last, after the depth-(n-1) ball
    leaves_n = {v: zs[v] for v in ball.leaves}
    leaves_m = {v: zs[v] for v in range(m) if ball.level[v] == ball.depth - 1}

    # a depth-n configuration restricts to the depth-(n-1) one in its top m bits;
    # both sides list those labels in the same ascending order
    grouped = _grouped_sums(n, ball.parent, lam, leaves_n, n - m).values()
    inner = _grouped_sums(m, ball.parent, lam, leaves_m, 0).values()
    total_n, total_m = sum(grouped), sum(inner)
    # the first largest deviation above 0 (NaN never is), else 0
    return max([0, *(abs(a / total_n - b / total_m) for a, b in zip(grouped, inner))])


def conditional_child_distribution(
    ball: FiniteBall,
    lam,
    z_assignment,
    parent_spin: int,
    steps: int = 1,
) -> tuple[float, float]:
    """Exact conditional spin distribution one or two levels below the root.

    Conditions the finite-volume measure on the root spin and returns the
    distribution of the root's first child (steps=1) or of that child's first
    child (steps=2). With a recursion-consistent assignment this reproduces
    the analytic one-step and two-step transition rows.
    """
    if steps not in (1, 2):
        raise DomainError(f"steps must be 1 or 2, got {steps!r}")
    if ball.depth < 2:
        raise DomainError("conditional extraction needs depth >= 2")
    if parent_spin not in (0, 1):
        raise DomainError(f"parent_spin must be 0 or 1, got {parent_spin!r}")
    _check_weight("activity", lam)
    _require_enumerable(ball)
    zs = _vertex_values(ball, z_assignment)
    leaves = {v: zs[v] for v in ball.leaves}

    target = ball.children[0][0]
    if steps == 2:
        target = ball.children[target][0]

    # keyed by the spins of vertices 0..target: root first, target last
    sums = _grouped_sums(ball.n_vertices, ball.parent, lam, leaves, ball.n_vertices - 1 - target)
    cond = [(label, w) for label, w in sums.items() if label >> target == parent_spin]
    cond_total = sum(w for _, w in cond)
    occ_target = sum(w for label, w in cond if label & 1)
    if cond_total == 0:
        raise DomainError(f"conditioning event root={parent_spin} has probability 0")
    p1 = occ_target / cond_total
    return 1 - p1, p1


@dataclass
class SampleResult:
    """Spin samples of the tree-indexed chain plus reproducibility metadata.

    spins has one row per sample and one int8 column per vertex in the
    ball's breadth-first order, stored vertex-major: spins.T is C-contiguous.
    """

    ball: FiniteBall
    spins: np.ndarray
    metadata: dict = field(default_factory=dict)


def hard_core_violations(ball: FiniteBall, spins: np.ndarray) -> int:
    """Count adjacent occupied pairs over all samples (must be 0) in bool or
    integer spins, any nonzero spin occupied, vertices along the last axis,
    read vertex-major."""
    spins = np.asarray(spins)
    n = ball.n_vertices
    if spins.shape[-1:] != (n,):
        raise DomainError(f"spins must have {n} vertices along the last axis, got {spins.shape}")
    if spins.dtype.kind not in "biu":
        raise DomainError(f"spins must be bool or integer, got {spins.dtype}")
    by_vertex, parent = spins.reshape(-1, n).T, np.array(ball.parent[1:], dtype=np.intp)
    cols = max(1, _SAMPLE_BLOCK // n)  # bounds the temporaries
    return sum(_block_violations(by_vertex[:, i:i + cols], parent)
               for i in range(0, by_vertex.shape[1], cols))


def _block_violations(block: np.ndarray, parent: np.ndarray) -> int:
    """Adjacent occupied pairs in vertex-major spins: each row from row 1 on
    ANDed with its parent's row, parent as an intp array of ball.parent[1:]."""
    return int(np.count_nonzero(np.logical_and(block[1:], block[parent])))


def sample_tree_chain(
    params: ModelParams,
    z1: float,
    z2: float,
    depth: int,
    count: int,
    seed: int,
    root_degree: RootDegree = RootDegree.HALF,
) -> SampleResult:
    """Draw spin configurations of the alternating tree-indexed chain.

    The root spin follows the stationary distribution of the two-step chain;
    each edge into an odd level applies the one-step matrix at z1, each edge
    into an even level the one at z2. Draws take one uniform per vertex per
    sample in breadth-first order from one stream of numpy's PCG64 seeded
    with seed, cut at sample boundaries with PCG64.advance and drawn in
    parallel over the usable CPUs, so results are still a pure function of
    (seed, k, depth, count, root degree).
    """
    ball, by_vertex, _, metadata = _draw(params, z1, z2, depth, count, seed, root_degree, True)
    return SampleResult(ball=ball, spins=by_vertex.view(np.int8).T, metadata=metadata)


def _draw(params, z1, z2, depth, count, seed, root_degree, keep):
    """sample_tree_chain's checks and draw: (ball, the (n, count) spins by
    vertex if keep else None, their adjacent occupied pairs if not keep else
    None, metadata). Without keep each part fills one reused block and counts
    it while it is still in cache, so no more than a block a part is held."""
    for name, value in (("depth", depth), ("count", count)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value!r}")
    _check_int("seed", seed, 0)
    z1, z2 = _check_positive("z1", z1), _check_positive("z2", z2)
    ball = FiniteBall(params.k, depth, root_degree)
    if count * ball.n_vertices > _SAMPLE_SPIN_CAP:
        raise SizeCapError(f"sampling holds at most {_SAMPLE_SPIN_CAP} spins, "
                           f"got {count} samples of {ball.n_vertices} vertices")

    # the two-step chain's p01/(p01 + p10), with p01 = v/((1+u)(1+v)) and
    # p10 = 1/(1+v), is v/(1+u+v); q is the one-step chance to occupy a child
    u, v = params.lam * z1, params.lam * z2
    pi1, q_odd, q_even = v / (1.0 + u + v), u / (1.0 + u), v / (1.0 + v)

    n = ball.n_vertices
    level_end = [0, *np.cumsum(np.bincount(ball.level)).tolist()]  # levels are contiguous
    # a vertex is occupied where its uniform is below q and its parent is free
    q = np.array([pi1, *(q_odd if lev % 2 == 1 else q_even for lev in ball.level[1:])])
    # row v of by_vertex holds vertex v of every sample. Part j fills samples
    # bounds[j] to bounds[j + 1] in row blocks, drawing the same stream as
    # one rng.random((count, n)) call: each block is compared sample-major,
    # transposed into its columns and filled one level at a time, where each
    # parent's children are consecutive. The parts' buffers hold one block,
    # as do their own blocks of spins, in place of by_vertex, without keep
    by_vertex = np.zeros((n, count), dtype=bool) if keep else None
    parent = np.array(ball.parent[1:], dtype=np.intp)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parts = max(1, min(cpus or 1, count * n // _SAMPLE_BLOCK))
    bounds = [count * j // parts for j in range(parts + 1)]
    rows = min(count, max(1, _SAMPLE_BLOCK // parts // n))
    errors, found = [], [0] * parts

    def fill(j):
        try:
            # one 64-bit draw per float64 uniform: part j starts at sample bounds[j]
            rng = np.random.Generator(np.random.PCG64(seed).advance(bounds[j] * n))
            uniforms, below = np.empty((rows, n)), np.empty((rows, n), dtype=bool)
            own = None if keep else np.empty((n, rows), dtype=bool)
            for first in range(bounds[j], bounds[j + 1], rows):
                m = min(rows, bounds[j + 1] - first)
                block = by_vertex[:, first:first + m] if keep else own[:, :m]
                block[...] = np.less(rng.random(out=uniforms[:m]), q, out=below[:m]).T
                for a, b, c in zip(level_end, level_end[1:], level_end[2:]):
                    children = block[b:c].reshape(b - a, -1, m)  # splits an axis: a view
                    np.greater(children, block[a:b, None], out=children)
                if not keep:
                    found[j] += _block_violations(block, parent)
        except BaseException as exc:  # re-raised in the caller once every part is done
            errors.append(exc)

    workers = [threading.Thread(target=fill, args=(j,)) for j in range(1, parts)]
    for worker in workers:
        worker.start()
    fill(0)
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]

    metadata = {
        "generator": "numpy.random.default_rng (PCG64)",
        "seed": int(seed),
        "count": int(count),
        "depth": int(depth),
        "k": params.k,
        "lambda": params.lam,
        "z1": z1,
        "z2": z2,
        "root_distribution": "stationary law of the two-step chain",
        "parity": "z1 on edges into odd levels, z2 into even levels",
        "draw_order": "one uniform per vertex per sample, breadth-first",
        "root_degree": ball.root_degree.value,
    }
    return ball, by_vertex, None if keep else sum(found), metadata
