"""Block-structured Bregman geometries.

A geometry bundles a constraint set (product of probability simplices,
product of Euclidean balls, or the free space) with the mirror map that
generates its Bregman divergence.  Three kinds are supported:

* ``EntropySimplex``: negative entropy on a product of simplices.  The
  divergence is the blockwise KL divergence, the primal norm is the
  blockwise l1 norm (combined in l2 across blocks) and the dual norm is
  the blockwise max norm.  The mirror map gradient is unbounded, so its
  Lipschitz constant is reported as infinity.
* ``EuclideanBall``: half squared norm on a product of centered balls.
* ``EuclideanFree``: half squared norm on the whole space.

All operations are pure functions over :class:`BlockVector`, which
stores its blocks end to end in one contiguous float64 array (``data``)
and exposes each block as a view into it.  Elementwise work runs as one
numpy call on ``data``; reductions that define a block's norm or its
simplex normalization run per block.  The layout is part of the
contract: block j takes the ``block_dims[j]`` entries that follow the
first j blocks, so the oracles in ``operators`` write their output
blocks into one flat array and wrap it with :meth:`BlockVector.wrap`.  The fused inertial prox applies
the update

    z_plus = argmin_{z in K} { <alpha*v, z> + gamma*D(z, x_cur)
                               + (1 - gamma)*D(z, x_prev) }

in a single pass.  For the entropy kind this is done entirely in log
space: the convex combination of mirror images is never mapped back to
the simplex before the prox, which avoids underflow for tiny weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LayoutError, ParameterError

ENTROPY_SIMPLEX = "EntropySimplex"
EUCLIDEAN_BALL = "EuclideanBall"
EUCLIDEAN_FREE = "EuclideanFree"

_KINDS = (ENTROPY_SIMPLEX, EUCLIDEAN_BALL, EUCLIDEAN_FREE)

#: Lower clamp applied before logarithms of simplex coordinates.
DEFAULT_FLOOR = 1e-300


class BlockVector:
    """An ordered tuple of dense real blocks, stored in one flat array.

    ``data`` is a contiguous float64 array holding the blocks end to end;
    ``blocks`` is a tuple of 1-D views into it, built on first access and
    cached, so writing through a block writes ``data`` and the reverse.
    Elementwise arithmetic is one numpy call on ``data`` whatever the
    number of blocks; reductions (the norms) stay per block.
    The constructor copies several blocks into one new array and keeps a
    single contiguous float64 block as it is, without a copy.
    The helpers allocate fresh vectors.  ``block_dims`` is fixed at
    construction, so treat ``data`` and ``blocks`` as bound for life:
    rebinding either would leave the layout or the views stale.
    """

    __slots__ = ("data", "block_dims", "_blocks")

    def __init__(self, blocks):
        blocks = tuple(blocks)
        self.block_dims: tuple[int, ...] = tuple([np.size(b) for b in blocks])
        if len(blocks) == 1:
            self.data = np.ascontiguousarray(blocks[0], dtype=np.float64).reshape(-1)
        else:
            self.data = np.concatenate(
                [np.asarray(b, dtype=np.float64).reshape(-1) for b in blocks])
        self._blocks = None

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        views = self._blocks
        if views is None:
            out, off = [], 0
            for d in self.block_dims:
                out.append(self.data[off : off + d])
                off += d
            views = self._blocks = tuple(out)
        return views

    def __repr__(self) -> str:
        return f"BlockVector(blocks={self.blocks!r})"

    @classmethod
    def wrap(cls, data: np.ndarray, block_dims: tuple[int, ...]) -> "BlockVector":
        """A vector over an already flat float64 array, without copying it.

        ``data`` must hold the blocks of ``block_dims`` end to end.
        """
        vec = object.__new__(cls)
        vec.data = data
        vec.block_dims = block_dims
        vec._blocks = None
        return vec

    @classmethod
    def zeros(cls, block_dims) -> "BlockVector":
        block_dims = tuple(int(d) for d in block_dims)
        return cls.wrap(np.zeros(sum(block_dims)), block_dims)

    @classmethod
    def full(cls, block_dims, value: float) -> "BlockVector":
        block_dims = tuple(int(d) for d in block_dims)
        return cls.wrap(np.full(sum(block_dims), float(value)), block_dims)

    def copy(self) -> "BlockVector":
        return BlockVector.wrap(self.data.copy(), self.block_dims)

    def scaled(self, coeff: float) -> "BlockVector":
        return BlockVector.wrap(coeff * self.data, self.block_dims)

    def __add__(self, other: "BlockVector") -> "BlockVector":
        _check_same_layout(self, other)
        return BlockVector.wrap(self.data + other.data, self.block_dims)

    def __sub__(self, other: "BlockVector") -> "BlockVector":
        _check_same_layout(self, other)
        return BlockVector.wrap(self.data - other.data, self.block_dims)


#: Dual-space vectors share the container; the alias marks intent.
DualVector = BlockVector


@dataclass(frozen=True)
class GeometrySpec:
    """Immutable description of a constraint set and its mirror map."""

    kind: str
    block_dims: tuple[int, ...]
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown geometry kind {self.kind!r}; expected one of {_KINDS}")
        if not self.block_dims or any(d < 1 for d in self.block_dims):
            raise ParameterError(f"block_dims must be positive, got {self.block_dims}")
        if self.kind == EUCLIDEAN_BALL and self.radius <= 0:
            raise ParameterError(f"ball radius must be positive, got {self.radius}")
        object.__setattr__(self, "block_dims", tuple(int(d) for d in self.block_dims))

    @property
    def mirror_lipschitz(self) -> float:
        """Lipschitz constant of the mirror map gradient (L_f).

        Unbounded for the entropy kind, 1 for the Euclidean kinds.
        """
        return math.inf if self.kind == ENTROPY_SIMPLEX else 1.0


def _check_same_layout(a: BlockVector, b: BlockVector) -> None:
    if a.block_dims != b.block_dims:
        raise LayoutError(f"block layouts differ: {a.block_dims} vs {b.block_dims}")


def check_layout(spec: GeometrySpec, vec: BlockVector, name: str = "vector") -> None:
    if vec.block_dims != spec.block_dims:
        raise LayoutError(
            f"{name} has blocks {vec.block_dims}, geometry expects {spec.block_dims}"
        )


def _entropy_guard(x: BlockVector, name: str) -> np.ndarray:
    """Flat copy of x clamped at the floor; negative coordinates are a domain error."""
    if x.data.min() < 0:
        raise DomainError(f"{name} has negative coordinates; entropy domain is x >= 0")
    return np.maximum(x.data, DEFAULT_FLOOR)


def bregman_divergence(spec: GeometrySpec, x: BlockVector, y: BlockVector) -> float:
    """D(x, y) = f(x) - f(y) - <grad f(y), x - y>.

    Entropy kind: blockwise KL divergence sum(x log(x/y) + y - x) with the
    convention 0 log 0 = 0; y must be strictly positive.  Euclidean kinds:
    half squared distance.
    """
    check_layout(spec, x, "x")
    check_layout(spec, y, "y")
    if spec.kind == ENTROPY_SIMPLEX:
        total = 0.0
        for bx, by in zip(x.blocks, y.blocks):
            if np.any(bx < 0):
                raise DomainError("x has negative coordinates; KL domain is x >= 0")
            if np.any(by <= 0):
                raise DomainError("y has nonpositive coordinates; KL needs y > 0")
            pos = bx > 0
            total += float(np.sum(bx[pos] * np.log(bx[pos] / by[pos])))
            total += float(np.sum(by) - np.sum(bx))
        return total
    diff = x.data - y.data
    return 0.5 * float(diff.dot(diff))


def _check_step_params(gamma: float, alpha: float) -> None:
    if not (0.0 < gamma <= 1.0):
        raise ParameterError(f"gamma must lie in (0, 1], got {gamma}")
    if not (alpha > 0.0):
        raise ParameterError(f"alpha must be positive, got {alpha}")


def fused_inertial_prox(
    spec: GeometrySpec,
    x_cur: BlockVector,
    x_prev: BlockVector,
    gamma: float,
    v: DualVector,
    alpha: float,
) -> BlockVector:
    """Single-pass inertial Bregman proximal step.

    Solves argmin_{z in K} <alpha*v, z> + gamma*D(z, x_cur)
    + (1 - gamma)*D(z, x_prev).  Inputs must be interior to the domain of
    the mirror map (strictly positive up to flooring for the entropy
    kind); they need not be feasible, the output always is.
    """
    _check_step_params(gamma, alpha)
    check_layout(spec, x_cur, "x_cur")
    check_layout(spec, x_prev, "x_prev")
    check_layout(spec, v, "v")

    # In place, with the operations and their order of the plain expression.
    if spec.kind == ENTROPY_SIMPLEX:
        # Log-space combination; the per-block max shift makes the
        # exponentials safe, the per-block sum normalizes each simplex.
        out = _entropy_guard(x_cur, "x_cur")
        tmp = _entropy_guard(x_prev, "x_prev")
        np.log(out, out)
        out *= gamma
        np.log(tmp, tmp)
        tmp *= 1.0 - gamma
    else:
        out = x_cur.data * gamma
        tmp = x_prev.data * (1.0 - gamma)
    out += tmp
    np.multiply(v.data, alpha, tmp)
    out -= tmp

    vec = BlockVector.wrap(out, spec.block_dims)
    # Views into out, cached on vec for the callers that read them next.
    blocks = vec.blocks
    if spec.kind == ENTROPY_SIMPLEX:
        for blk in blocks:
            blk -= blk.max()
        np.exp(out, out)
        for blk in blocks:
            blk /= blk.sum()
    elif spec.kind == EUCLIDEAN_BALL:
        for blk in blocks:
            # The 2-norm of a 1-D block, as np.linalg.norm computes it.
            nrm = math.sqrt(blk.dot(blk))
            if nrm > spec.radius:
                blk *= spec.radius / nrm
    return vec


def primal_norm(spec: GeometrySpec, x: BlockVector) -> float:
    """Blockwise primal norm, combined in l2 across blocks."""
    check_layout(spec, x, "x")
    if spec.kind == ENTROPY_SIMPLEX:
        return math.sqrt(sum(float(np.sum(np.abs(b))) ** 2 for b in x.blocks))
    return math.sqrt(sum(float(b.dot(b)) for b in x.blocks))


def dual_norm(spec: GeometrySpec, d: DualVector) -> float:
    """Norm dual to :func:`primal_norm` (blockwise max norm for entropy)."""
    check_layout(spec, d, "d")
    if spec.kind == ENTROPY_SIMPLEX:
        return math.sqrt(sum(float(np.max(np.abs(b))) ** 2 for b in d.blocks))
    return math.sqrt(sum(float(b.dot(b)) for b in d.blocks))


def uniform_start(spec: GeometrySpec) -> BlockVector:
    """Canonical start: uniform blocks on simplices, origin otherwise."""
    if spec.kind == ENTROPY_SIMPLEX:
        return BlockVector(tuple(np.full(d, 1.0 / d) for d in spec.block_dims))
    return BlockVector.zeros(spec.block_dims)
