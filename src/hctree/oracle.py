"""Exact finite-volume cross-checks on small balls of the Cayley tree.

Everything here is deliberately independent of the solver formulas: admissible
configurations are enumerated by depth-first search, partition functions are
also computed by a bottom-up two-state recursion, and the two paths are
compared wherever both are feasible. Kolmogorov consistency of the
finite-volume measures and the conditional child distributions are extracted
by brute force so they can vouch for the analytic transition matrices.

Arithmetic is generic over the numeric type: passing `fractions.Fraction`
activities and boundary weights yields exact rational partition functions and
marginals on small instances.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
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

# 2**40 raw states is the worst case the pruned DFS is allowed to face
ENUMERATION_VERTEX_CAP = 40


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


def _enumerate_prefix(n_vertices: int, parent: Sequence[int]):
    """Yield admissible 0/1 tuples over vertices 0..n_vertices-1.

    Admissible means no occupied vertex has an occupied parent; since parents
    precede children in the vertex order, one pass suffices.
    """
    spins = [0] * n_vertices

    def rec(idx: int):
        if idx == n_vertices:
            yield tuple(spins)
            return
        spins[idx] = 0
        yield from rec(idx + 1)
        p = parent[idx]
        if p < 0 or spins[p] == 0:
            spins[idx] = 1
            yield from rec(idx + 1)
            spins[idx] = 0

    yield from rec(0)


def enumerate_admissible(ball: FiniteBall):
    """Yield every admissible configuration of the ball in vertex order."""
    _require_enumerable(ball.n_vertices)
    yield from _enumerate_prefix(ball.n_vertices, ball.parent)


def _count_enumeration(n_vertices: int, parent: Sequence[int]) -> int:
    occupied = [False] * n_vertices

    def rec(idx: int) -> int:
        if idx == n_vertices:
            return 1
        total = rec(idx + 1)  # idx free
        p = parent[idx]
        if p < 0 or not occupied[p]:
            occupied[idx] = True
            total += rec(idx + 1)
            occupied[idx] = False
        return total

    return rec(0)


def count_admissible(ball: FiniteBall, method: str = "auto") -> int:
    """Number of admissible configurations, exactly.

    method: "enumeration" (pruned DFS, capped at 40 vertices), "recursion"
    (per-subtree free/occupied counts, any size), or "auto" which runs the
    recursion and, whenever the ball is enumerable, cross-checks the two.
    """
    if method == "enumeration":
        _require_enumerable(ball.n_vertices)
        return _count_enumeration(ball.n_vertices, ball.parent)
    if method not in ("recursion", "auto"):
        raise DomainError(f"unknown counting method {method!r}")
    # unit activity and boundary weights count configurations, in exact ints
    total = sum(_partition_recursion(ball, 1, dict.fromkeys(ball.leaves, 1)))
    if method == "auto" and ball.n_vertices <= ENUMERATION_VERTEX_CAP:
        check = _count_enumeration(ball.n_vertices, ball.parent)
        if check != total:
            raise InternalCheckError(
                f"admissible-count mismatch: enumeration {check}, recursion {total}"
            )
    return total


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
        if z <= 0:
            raise DomainError(f"assignment at vertex {v} must be positive, got {z!r}")
    return vec


def _leaf_values(ball: FiniteBall, boundary_z) -> dict[int, Any]:
    """Normalize a scalar / sequence / mapping boundary weight to {leaf: z}."""
    if isinstance(boundary_z, Mapping):
        out = {v: boundary_z[v] for v in ball.leaves}
        for v, z in out.items():
            if z <= 0:
                raise DomainError(
                    f"boundary weight at vertex {v} must be positive, got {z!r}"
                )
        return out
    vec = _vertex_values(ball, boundary_z)
    return {v: vec[v] for v in ball.leaves}


def _weight(lam, config: Sequence[int], leaves: Mapping[int, Any]):
    """lam**occupied times the boundary factor of the occupied leaves."""
    w = lam ** sum(config)
    for v, z in leaves.items():
        if config[v]:
            w = w * z
    return w


def _partition_enumeration(ball: FiniteBall, lam, leaves: Mapping[int, Any]):
    _require_enumerable(ball.n_vertices)
    configs = _enumerate_prefix(ball.n_vertices, ball.parent)
    weights = (_weight(lam, config, leaves) for config in configs)
    # added one by one, float weights drift past the 1e-12 cross-check on
    # balls of 21 vertices; fsum rounds once, exact types still add exactly
    if any(isinstance(x, float) for x in (lam, *leaves.values())):
        return math.fsum(weights)
    return sum(weights)


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
    if lam <= 0:
        raise DomainError(f"activity must be positive, got {lam!r}")
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
    if lam <= 0:
        raise DomainError(f"activity must be positive, got {lam!r}")
    leaves = _leaf_values(ball, boundary_z)
    if method == "enumeration":
        _require_enumerable(ball.n_vertices)
        total = 0
        occ_total = 0
        for config in _enumerate_prefix(ball.n_vertices, ball.parent):
            w = _weight(lam, config, leaves)
            total = total + w
            if config[0]:
                occ_total = occ_total + w
        return occ_total / total
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
    if lam <= 0:
        raise DomainError(f"activity must be positive, got {lam!r}")
    _require_enumerable(ball.n_vertices)
    zs = _vertex_values(ball, z_assignment)

    leaves_n = {v: zs[v] for v in ball.leaves}
    m = ball.prefix_size(ball.depth - 1)
    leaves_m = {v: zs[v] for v in range(m) if ball.level[v] == ball.depth - 1}

    grouped: dict[tuple, Any] = {}
    total_n = 0
    for config in _enumerate_prefix(ball.n_vertices, ball.parent):
        w = _weight(lam, config, leaves_n)
        total_n = total_n + w
        key = config[:m]
        grouped[key] = grouped.get(key, 0) + w

    worst = 0
    total_m = 0
    inner = []
    for config in _enumerate_prefix(m, ball.parent[:m]):
        w = _weight(lam, config, leaves_m)
        total_m = total_m + w
        inner.append((config, w))
    for config, w in inner:
        dev = abs(grouped.get(config, 0) / total_n - w / total_m)
        if dev > worst:
            worst = dev
    return worst


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
    if lam <= 0:
        raise DomainError(f"activity must be positive, got {lam!r}")
    _require_enumerable(ball.n_vertices)
    zs = _vertex_values(ball, z_assignment)
    leaves = {v: zs[v] for v in ball.leaves}

    target = ball.children[0][0]
    if steps == 2:
        target = ball.children[target][0]

    cond_total = 0
    occ_target = 0
    for config in _enumerate_prefix(ball.n_vertices, ball.parent):
        if config[0] != parent_spin:
            continue
        w = _weight(lam, config, leaves)
        cond_total = cond_total + w
        if config[target]:
            occ_target = occ_target + w
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
    total = 0
    for v in range(1, ball.n_vertices):
        total += int(np.sum(spins[..., v] & spins[..., ball.parent[v]]))
    return total


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
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth!r}")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    if z1 <= 0 or z2 <= 0:
        raise DomainError("z1, z2 must be positive")
    ball = FiniteBall(params.k, depth, root_degree)

    two_step = two_step_matrix(params, z1, z2)
    pi1 = two_step.p01 / (two_step.p01 + two_step.p10)
    q_odd = params.lam * z1 / (1.0 + params.lam * z1)
    q_even = params.lam * z2 / (1.0 + params.lam * z2)

    rng = np.random.default_rng(seed)
    uniforms = rng.random((count, ball.n_vertices))
    spins = np.zeros((count, ball.n_vertices), dtype=np.int8)
    spins[:, 0] = uniforms[:, 0] < pi1
    for v in range(1, ball.n_vertices):
        q = q_odd if ball.level[v] % 2 == 1 else q_even
        parent_free = spins[:, ball.parent[v]] == 0
        spins[:, v] = parent_free & (uniforms[:, v] < q)

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
