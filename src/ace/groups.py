"""Finite symmetry groups and their concrete actions on tensors.

Two groups ship: the cyclic rotation group C4 acting on square images
and the symmetric group S_n acting on the rows of a set. Both act by
exact index permutation, so every action here is an l2 isometry and
introduces no rounding.

The composition convention for S_n is fixed so that the row-gather
action is a homomorphism: acting by p gathers ``z[p[i]]`` into row i,
and ``compose(a, b)`` satisfies act(a) after act(b) equals
act(compose(a, b)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .tensor import ShapeError, Tensor, roll, rot90, take

__all__ = [
    "GroupElement",
    "C4",
    "Sn",
    "Group",
    "Representation",
    "RotationImageRep",
    "RegularRep",
    "PermutationRep",
    "TrivialRep",
    "apply",
]

ENUMERATION_LIMIT = 6  # S_n enumeration refuses beyond this (factorial growth)


@dataclass(frozen=True)
class GroupElement:
    group: str
    data: object  # int rotation count for c4, tuple permutation for s_n

    def __repr__(self):
        return f"GroupElement({self.group}, {self.data})"


class Group:
    """Common interface: identity, compose, inverse, elements, sample."""

    name = ""

    def identity(self) -> GroupElement:
        raise NotImplementedError

    def compose(self, a: GroupElement, b: GroupElement) -> GroupElement:
        raise NotImplementedError

    def inverse(self, a: GroupElement) -> GroupElement:
        raise NotImplementedError

    def elements(self):
        raise NotImplementedError

    def sample(self, rng) -> GroupElement:
        raise NotImplementedError


class C4(Group):
    """Planar rotations by multiples of 90 degrees."""

    name = "c4"
    order = 4

    def identity(self):
        return GroupElement("c4", 0)

    def compose(self, a, b):
        return GroupElement("c4", (a.data + b.data) % 4)

    def inverse(self, a):
        return GroupElement("c4", (-a.data) % 4)

    def elements(self):
        return [GroupElement("c4", r) for r in range(4)]

    def sample(self, rng):
        return GroupElement("c4", int(rng.integers(4)))


class Sn(Group):
    """Symmetric group on n points, elements stored as gather maps."""

    name = "sn"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"S_n needs n >= 1, got {n}")
        self.n = n
        self.order = math.factorial(n) if n <= ENUMERATION_LIMIT else None

    def identity(self):
        return GroupElement("sn", tuple(range(self.n)))

    def compose(self, a, b):
        # act(a) after act(b): gather twice, so (a*b)[i] = b[a[i]]
        return GroupElement("sn", tuple(b.data[i] for i in a.data))

    def inverse(self, a):
        inv = [0] * self.n
        for i, j in enumerate(a.data):
            inv[j] = i
        return GroupElement("sn", tuple(inv))

    def elements(self):
        if self.n > ENUMERATION_LIMIT:
            raise ValueError(
                f"S_{self.n} has {self.n}! elements; enumeration is refused above "
                f"n = {ENUMERATION_LIMIT}, use sample() instead"
            )
        return [GroupElement("sn", p) for p in permutations(range(self.n))]

    def sample(self, rng):
        return GroupElement("sn", tuple(int(i) for i in rng.permutation(self.n)))


# ---------------------------------------------------------------- representations


class Representation:
    """An action of a group on tensors of a fixed space shape.

    ``apply`` accepts a tensor whose trailing axes equal ``space_shape``
    plus at most one extra leading batch axis. All shipped actions are
    index permutations, hence exact isometries (operator bound 1).
    """

    group: Group
    space_shape: tuple
    kind = ""

    def apply(self, g: GroupElement, z: Tensor) -> Tensor:
        raise NotImplementedError

    def operator_norm_bound(self) -> float:
        return 1.0

    def _check(self, z: Tensor) -> None:
        shp = z.shape
        ok = shp == self.space_shape or (
            len(shp) == len(self.space_shape) + 1 and shp[1:] == self.space_shape
        )
        if not ok:
            raise ShapeError(
                f"{self.kind} expects shape {self.space_shape} (optionally batched), got {shp}"
            )


class RotationImageRep(Representation):
    """C4 acting on (C, H, W) images by spatial rotation; needs H = W."""

    kind = "rotation_image"

    def __init__(self, channels: int, height: int, width: int):
        if height != width:
            raise ShapeError(f"C4 rotation needs square images, got {height}x{width}")
        self.group = C4()
        self.space_shape = (channels, height, width)

    def apply(self, g, z):
        self._check(z)
        return rot90(z, g.data)


class RegularRep(Representation):
    """C4 regular representation on (4, C, H, W) feature maps.

    Acting by g rotates every channel spatially by g and cyclically
    shifts the group axis by g, which is exactly how lifted feature maps
    transform under input rotation.
    """

    kind = "regular"

    def __init__(self, channels: int, height: int, width: int):
        if height != width:
            raise ShapeError(f"C4 regular rep needs square images, got {height}x{width}")
        self.group = C4()
        self.space_shape = (4, channels, height, width)

    def apply(self, g, z):
        self._check(z)
        return rot90(roll(z, g.data, axis=-4), g.data)


class PermutationRep(Representation):
    """S_n acting on (n, d) sets by row permutation (gather by p)."""

    kind = "permutation_rows"

    def __init__(self, n_points: int, d: int):
        self.group = Sn(n_points)
        self.space_shape = (n_points, d)

    def apply(self, g, z):
        self._check(z)
        return take(z, np.asarray(g.data, dtype=np.int64), axis=-2)


class TrivialRep(Representation):
    """Identity action on a vector space (invariant outputs)."""

    kind = "trivial"

    def __init__(self, group: Group, shape: tuple):
        self.group = group
        self.space_shape = tuple(shape)

    def apply(self, g, z):
        self._check(z)
        return z


def apply(g: GroupElement, rep: Representation, z: Tensor) -> Tensor:
    """Apply the representation of g to z (linear, differentiable)."""
    return rep.apply(g, z)
