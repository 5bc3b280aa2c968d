"""Exact finite-volume cross-checks on small balls of the Cayley tree.

Everything here is deliberately independent of the solver formulas: admissible
configurations are all listed, partition functions are also
computed by a bottom-up two-state recursion, and the two paths are compared
wherever both are feasible. Kolmogorov consistency of the finite-volume
measures and the conditional child distributions are extracted by brute force
so they can vouch for the analytic transition matrices.

The enumeration lists each configuration as an int64 bit mask, vertex v at
bit n-1-v, in numpy blocks of bounded size; ascending masks are the
depth-first order. Float weights are added in that order (partition
functions with one `math.fsum`), so results do not depend on the block size.
Arithmetic is generic over the numeric type: passing `fractions.Fraction`
activities and boundary weights yields exact rational partition functions and
marginals, formed once per group of configurations with equal weight.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Any

import numpy as np

from .core import (
    DomainError,
    InternalCheckError,
    ModelParams,
    SizeCapError,
    _check_int,
    two_step_matrix,
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
# the "auto" admissible count cross-checks by enumeration up to this many
# configurations; FiniteBall(2, 4) has 8,143,397, FiniteBall(3, 3) 2.3e9
_CROSS_CHECK_CONFIGURATIONS = 1 << 24


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
    breadth-first prefix of the vertex list is itself a rooted subtree.
    """

    def __init__(self, k: int, depth: int, root_degree: RootDegree = RootDegree.HALF):
        _check_int("k", k, 1)
        _check_int("depth", depth, 0)
        root_degree = RootDegree(root_degree)
        self.k = k
        self.depth = depth
        self.root_degree = root_degree

        parent = [-1]
        level = [0]
        children: list[list[int]] = [[]]
        frontier = [0]
        for lev in range(1, depth + 1):
            nxt = []
            for v in frontier:
                fanout = k + 1 if (v == 0 and root_degree is RootDegree.FULL) else k
                for _ in range(fanout):
                    idx = len(parent)
                    parent.append(v)
                    level.append(lev)
                    children.append([])
                    children[v].append(idx)
                    nxt.append(idx)
            frontier = nxt
        self.parent = tuple(parent)
        self.level = tuple(level)
        self.children = tuple(tuple(c) for c in children)
        self.leaves = tuple(v for v in range(len(parent)) if level[v] == depth)
        self.n_vertices = len(parent)

    def __repr__(self) -> str:
        return (
            f"FiniteBall(k={self.k}, depth={self.depth}, "
            f"root_degree={self.root_degree.value!r}, n_vertices={self.n_vertices})"
        )

    def prefix_size(self, max_level: int) -> int:
        """Number of vertices at levels 0..max_level (a breadth-first prefix)."""
        return sum(1 for lev in self.level if lev <= max_level)


def _require_enumerable(n_vertices: int) -> None:
    if n_vertices > ENUMERATION_VERTEX_CAP:
        raise SizeCapError(
            f"enumeration supports at most {ENUMERATION_VERTEX_CAP} vertices, "
            f"got {n_vertices}"
        )


def _require_ball_enumerable(k: int, depth: int, root_degree: RootDegree) -> None:
    """_require_enumerable for FiniteBall(k, depth, root_degree), k >= 2, from
    the closed-form vertex count, before the ball is built."""
    _check_int("depth", depth, 0)
    if depth > ENUMERATION_VERTEX_CAP:  # over 2**depth vertices, too many to even count
        raise SizeCapError(f"enumeration supports at most {ENUMERATION_VERTEX_CAP} vertices, "
                           f"got a ball of depth {depth}")
    fanout = k + 1 if root_degree is RootDegree.FULL else k
    _require_enumerable(1 + fanout * (k ** depth - 1) // (k - 1))


def _mask_blocks(n_vertices: int, parent: Sequence[int]):
    """Yield the admissible configurations of vertices 0..n_vertices-1 as
    ascending int64 bit masks, vertex v at bit n_vertices-1-v, in blocks of at
    most _BLOCK_ROWS rows.

    Admissible means no occupied vertex has an occupied parent. The masks
    grow one vertex at a time, each checked against its parent: m|bit goes
    right after m wherever the parent is free, so ascending masks are the
    lexicographic (depth-first) order. A block that grows past the row bound
    is split in order and its pieces are finished one after another.
    """
    rows = _BLOCK_ROWS
    pending = [(0, np.zeros(1, dtype=np.int64))]  # (next vertex, masks so far)
    while pending:
        first, masks = pending.pop()
        for v in range(first, n_vertices):
            # row i holds m and m|bit; m|bit is dropped where the parent is occupied
            pairs = np.empty((len(masks), 2), dtype=np.int64)
            pairs[:, 0] = masks
            np.bitwise_or(masks, 1 << (n_vertices - 1 - v), out=pairs[:, 1])
            p = parent[v]
            if p < 0:
                masks = pairs.ravel()
            else:
                keep = np.ones((len(masks), 2), dtype=bool)
                np.equal(masks & 1 << (n_vertices - 1 - p), 0, out=keep[:, 1])
                masks = pairs[keep]
            if len(masks) > rows:
                pending.extend((v + 1, masks[i:i + rows].copy())
                               for i in reversed(range(rows, len(masks), rows)))
                masks = masks[:rows]
        yield masks


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Occupied vertices of each mask, by bit shifts (masks are below 2**40)."""
    x = masks - ((masks >> 1) & 0x5555555555555555)
    x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0F
    return (x * 0x0101010101010101) >> 56


def enumerate_admissible(ball: FiniteBall):
    """Yield every admissible configuration of the ball in vertex order."""
    _require_enumerable(ball.n_vertices)
    shifts = np.arange(ball.n_vertices - 1, -1, -1)
    for masks in _mask_blocks(ball.n_vertices, ball.parent):
        yield from map(tuple, ((masks[:, None] >> shifts) & 1).tolist())


def _count_enumeration(ball: FiniteBall) -> int:
    return sum(len(masks) for masks in _mask_blocks(ball.n_vertices, ball.parent))


def count_admissible(ball: FiniteBall, method: str = "auto") -> int:
    """Number of admissible configurations, exactly.

    method: "enumeration" (every configuration listed, capped at 40
    vertices), "recursion" (per-subtree free/occupied counts, any size), or
    "auto" which runs the recursion and, when it counts at most 2**24
    configurations, cross-checks it against the enumeration.
    """
    if method == "enumeration":
        _require_enumerable(ball.n_vertices)
        return _count_enumeration(ball)
    if method not in ("recursion", "auto"):
        raise DomainError(f"unknown counting method {method!r}")
    # unit activity and boundary weights count configurations, in exact ints
    total = sum(_partition_recursion(ball, 1, dict.fromkeys(ball.leaves, 1)))
    if method == "auto" and total <= _CROSS_CHECK_CONFIGURATIONS:
        check = _count_enumeration(ball)
        if check != total:
            raise InternalCheckError(
                f"admissible-count mismatch: enumeration {check}, recursion {total}"
            )
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


def _is_float(lam, *leaf_maps: Mapping[int, Any]) -> bool:
    """Whether the weights are floats; otherwise they are summed exactly."""
    return any(isinstance(x, float) for x in (lam, *(z for m in leaf_maps for z in m.values())))


def _weight_blocks(n_vertices: int, parent: Sequence[int], lam, leaves: Mapping[int, Any]):
    """Yield (masks, float64 weights) per enumeration block.

    A weight is lam**occupied, from a table of Python powers, times the
    boundary weights of the occupied leaves multiplied in leaf order, so
    each equals the scalar product formed configuration by configuration.
    """
    powers: list[float] = []
    for masks in _mask_blocks(n_vertices, parent):
        occupied = _popcount(masks)
        while len(powers) <= occupied.max():
            powers.append(float(lam ** len(powers)))
        w = np.array(powers)[occupied]
        for v, z in leaves.items():  # times 1.0 where the leaf is free, which is exact
            w *= np.where(masks & (1 << (n_vertices - 1 - v)), float(z), 1.0)
        yield masks, w


def _running_sum(start: float, w: np.ndarray) -> float:
    """start + w[0] + w[1] + ..., added one at a time in order (np.cumsum is
    sequential; np.sum and np.add.reduceat are not)."""
    return float(np.cumsum(np.concatenate(([start], w)))[-1])


def _exact_sums(n_vertices: int, parent: Sequence[int], lam, leaves: Mapping[int, Any],
                shift: int) -> dict[int, Any]:
    """{mask >> shift: exact sum of the weights of those configurations}.

    Configurations are counted per key (mask >> shift, occupied vertices,
    occupied leaves of each distinct boundary weight), and each key's weight
    is formed once in the inputs' own exact arithmetic.
    """
    # (type, boundary weight) -> bits of its leaves; the type keeps an int
    # apart from an equal Fraction
    classes: dict[tuple[type, Any], int] = {}
    for v, z in leaves.items():
        key = (type(z), z)
        classes[key] = classes.get(key, 0) | 1 << (n_vertices - 1 - v)
    # mixed-radix digits of the key after the label; on the balls under the
    # vertex cap the key needs at most 46 bits
    radices = [n_vertices + 1, *(bits.bit_count() + 1 for bits in classes.values())]
    if (1 << (n_vertices - shift)) * math.prod(radices) >= 1 << 63:
        raise InternalCheckError("group key does not fit in an int64")
    counts: dict[int, int] = {}
    for masks in _mask_blocks(n_vertices, parent):
        key = masks >> shift
        digits = [_popcount(masks), *(_popcount(masks & bits) for bits in classes.values())]
        for digit, radix in zip(digits, radices):
            key = key * radix + digit
        groups, sizes = np.unique(key, return_counts=True)
        for group, size in zip(groups.tolist(), sizes.tolist()):
            counts[group] = counts.get(group, 0) + size
    keys = np.fromiter(counts, dtype=np.int64, count=len(counts))
    digits = []
    for radix in reversed(radices):
        keys, digit = np.divmod(keys, radix)
        digits.append(digit.tolist())
    occupied, *per_class = reversed(digits)
    lam_powers = [lam ** j for j in range(n_vertices + 1)]
    class_powers = [[z ** j for j in range(bits.bit_count() + 1)]
                    for (_, z), bits in classes.items()]
    sums: dict[int, Any] = {}
    for label, size, occ, *js in zip(keys.tolist(), counts.values(), occupied, *per_class):
        w = lam_powers[occ]
        for powers, j in zip(class_powers, js):
            if j:
                w = w * powers[j]
        sums[label] = sums.get(label, 0) + size * w
    return sums


def _label_sums(n_vertices: int, parent: Sequence[int], lam, leaves: Mapping[int, Any],
                shift: int):
    """(sums, total): the configurations' weights summed per label mask >> shift,
    labels ascending, and over all configurations.

    Float weights give a float64 array, each sum added in depth-first order;
    exact weights give an object array of exact sums.
    """
    if not _is_float(lam, leaves):
        sums = list(_exact_sums(n_vertices, parent, lam, leaves, shift).values())
        return np.array(sums, dtype=object), sum(sums)
    total = 0.0
    sums: list[float] = []
    last = -1
    for masks, w in _weight_blocks(n_vertices, parent, lam, leaves):
        total = _running_sum(total, w)
        if shift == 0:  # one configuration per label
            sums += w.tolist()
            continue
        labels = masks >> shift  # contiguous runs in this order
        cuts = [*np.flatnonzero(np.diff(labels, prepend=last)).tolist(), len(w)]
        if cuts[0]:  # the block opens inside the previous block's last label
            sums[-1] = _running_sum(sums[-1], w[:cuts[0]])
        sums += [_running_sum(0.0, w[a:b]) for a, b in zip(cuts, cuts[1:])]
        last = labels[-1]
    return np.array(sums), total


def _partition_enumeration(ball: FiniteBall, lam, leaves: Mapping[int, Any]):
    _require_enumerable(ball.n_vertices)
    n = ball.n_vertices
    if _is_float(lam, leaves):
        # added one by one, float weights drift past the 1e-12 cross-check on
        # balls of 21 vertices; fsum rounds once
        blocks = _weight_blocks(n, ball.parent, lam, leaves)
        return math.fsum(chain.from_iterable(w.tolist() for _, w in blocks))
    return sum(_exact_sums(n, ball.parent, lam, leaves, n).values())


def _partition_recursion(ball: FiniteBall, lam, leaves: Mapping[int, Any]):
    """Per subtree: (value given vertex free, value given vertex occupied)."""
    free = [0] * ball.n_vertices
    occ = [0] * ball.n_vertices
    for v in range(ball.n_vertices - 1, -1, -1):
        if not ball.children[v]:
            free[v] = 1
            occ[v] = lam * leaves[v]
        else:
            f = 1
            o = lam
            for c in ball.children[v]:
                f = f * (free[c] + occ[c])
                o = o * free[c]
            free[v] = f
            occ[v] = o
    return free[0], occ[0]


def partition_function(ball: FiniteBall, lam, boundary_z, method: str = "auto"):
    """Finite-volume normalizing constant with (1, z) boundary weights.

    Occupied vertices contribute a factor lam; occupied leaves additionally
    contribute their boundary weight z. The depth-0 ball degenerates to a
    single vertex that is both root and boundary, giving Z = 1 + lam*z; this
    convention is a documented choice, not forced by the recursion.
    """
    _check_weight("activity", lam)
    leaves = _leaf_values(ball, boundary_z)
    if method == "enumeration":
        return _partition_enumeration(ball, lam, leaves)
    if method not in ("recursion", "auto"):
        raise DomainError(f"unknown partition method {method!r}")
    f, o = _partition_recursion(ball, lam, leaves)
    total = f + o
    if method == "auto" and ball.n_vertices <= ENUMERATION_VERTEX_CAP:
        check = _partition_enumeration(ball, lam, leaves)
        denom = max(abs(total), abs(check))
        if denom > 0 and abs(total - check) > 1e-12 * denom:
            raise InternalCheckError(
                f"partition-function mismatch: enumeration {check}, recursion {total}"
            )
    return total


def root_marginal(ball: FiniteBall, lam, boundary_z, method: str = "recursion"):
    """Probability that the root is occupied under the finite-volume measure."""
    _check_weight("activity", lam)
    leaves = _leaf_values(ball, boundary_z)
    if method == "enumeration":
        _require_enumerable(ball.n_vertices)
        n = ball.n_vertices
        sums, total = _label_sums(n, ball.parent, lam, leaves, n - 1)  # by the root spin
        return sums.tolist()[1] / total
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
    _require_enumerable(ball.n_vertices)
    zs = _vertex_values(ball, z_assignment)

    n = ball.n_vertices
    m = ball.prefix_size(ball.depth - 1)
    leaves_n = {v: zs[v] for v in ball.leaves}
    leaves_m = {v: zs[v] for v in range(m) if ball.level[v] == ball.depth - 1}

    # a depth-n configuration restricts to the depth-(n-1) one in its top m
    # bits; both enumerations list those in the same ascending order. Each
    # side is summed as floats or exactly, by its own weights' types.
    grouped, total_n = _label_sums(n, ball.parent, lam, leaves_n, n - m)
    inner, total_m = _label_sums(m, ball.parent, lam, leaves_m, 0)
    devs = np.abs(grouped / total_n - inner / total_m).tolist()
    # the first largest deviation above 0 (NaN never is), else 0
    return max([0, *devs])


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
    _require_enumerable(ball.n_vertices)
    zs = _vertex_values(ball, z_assignment)
    leaves = {v: zs[v] for v in ball.leaves}

    target = ball.children[0][0]
    if steps == 2:
        target = ball.children[target][0]

    n = ball.n_vertices
    if _is_float(lam, leaves):
        cond_total = occ_target = 0.0
        for masks, w in _weight_blocks(n, ball.parent, lam, leaves):
            cond = masks >> (n - 1) == parent_spin
            cond_total = _running_sum(cond_total, w[cond])
            occ_target = _running_sum(occ_target, w[cond & (masks >> (n - 1 - target) & 1 == 1)])
    else:
        # keyed by the spins of vertices 0..target: root first, target last
        sums = _exact_sums(n, ball.parent, lam, leaves, n - 1 - target)
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
    ball's breadth-first order.
    """

    ball: FiniteBall
    spins: np.ndarray
    metadata: dict = field(default_factory=dict)


def hard_core_violations(ball: FiniteBall, spins: np.ndarray) -> int:
    """Count adjacent occupied pairs over all samples (must be 0)."""
    spins = np.asarray(spins)
    samples = spins.reshape(-1, spins.shape[-1])
    rows = max(1, _SAMPLE_BLOCK // ball.n_vertices)  # bounds the temporaries
    return sum(int(np.sum(block[:, 1:] & np.take(block, ball.parent[1:], axis=1)))
               for block in (samples[i:i + rows] for i in range(0, len(samples), rows)))


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
    into an even level the one at z2. Draws use numpy's default PCG64
    generator seeded once, consuming one uniform per vertex per sample in
    breadth-first order, so results are reproducible given (seed, shape).
    """
    for name, value in (("depth", depth), ("count", count)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise DomainError(f"{name} must be >= 1, got {value!r}")
    if z1 <= 0 or z2 <= 0:
        raise DomainError("z1, z2 must be positive")
    ball = FiniteBall(params.k, depth, root_degree)

    two_step = two_step_matrix(params, z1, z2)
    pi1 = two_step.p01 / (two_step.p01 + two_step.p10)
    q_odd = params.lam * z1 / (1.0 + params.lam * z1)
    q_even = params.lam * z2 / (1.0 + params.lam * z2)

    n = ball.n_vertices
    parents = np.asarray(ball.parent, dtype=np.intp)
    level_end = np.cumsum(np.bincount(ball.level)).tolist()  # levels are contiguous
    rng = np.random.default_rng(seed)
    spins = np.zeros((count, n), dtype=np.int8)
    # row blocks draw the same stream as one rng.random((count, n)) call
    rows = max(1, _SAMPLE_BLOCK // n)
    for first in range(0, count, rows):
        block = spins[first:first + rows]
        uniforms = rng.random(block.shape)
        block[:, 0] = uniforms[:, 0] < pi1
        for lev in range(1, depth + 1):
            a, b = level_end[lev - 1], level_end[lev]
            q = q_odd if lev % 2 == 1 else q_even
            block[:, a:b] = (np.take(block, parents[a:b], axis=1) == 0) & (uniforms[:, a:b] < q)

    metadata = {
        "generator": "numpy.random.default_rng (PCG64)",
        "seed": int(seed),
        "count": int(count),
        "depth": int(depth),
        "k": params.k,
        "lambda": params.lam,
        "z1": float(z1),
        "z2": float(z2),
        "root_distribution": "stationary law of the two-step chain",
        "parity": "z1 on edges into odd levels, z2 into even levels",
        "draw_order": "one uniform per vertex per sample, breadth-first",
        "root_degree": ball.root_degree.value,
    }
    return SampleResult(ball=ball, spins=spins, metadata=metadata)
