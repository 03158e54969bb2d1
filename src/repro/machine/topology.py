"""Interconnect topologies.

Only two things matter to the cost model: the hop distance between two
ranks and (for collectives) the dimensionality.  The paper's T3D is a 3-D
torus; its analysis uses hypercube collectives — both are provided, plus a
fully-connected idealisation (hop distance 1 everywhere).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_index, check_positive, check_power_of_two


@dataclass(frozen=True)
class Topology:
    """Base: a set of ``p`` ranks with a hop metric."""

    p: int

    def __post_init__(self) -> None:
        check_positive(self.p, "p")

    def hops(self, src: int, dst: int) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class FullyConnected(Topology):
    """Idealised crossbar: every pair is one hop apart."""

    def hops(self, src: int, dst: int) -> int:
        check_index(src, self.p, "src")
        check_index(dst, self.p, "dst")
        return 0 if src == dst else 1


@dataclass(frozen=True)
class Hypercube(Topology):
    """d-dimensional hypercube, p = 2^d; hop distance = Hamming distance."""

    def __post_init__(self) -> None:
        super().__post_init__()
        check_power_of_two(self.p, "hypercube size p")

    @property
    def dims(self) -> int:
        return self.p.bit_length() - 1

    def hops(self, src: int, dst: int) -> int:
        check_index(src, self.p, "src")
        check_index(dst, self.p, "dst")
        return (src ^ dst).bit_count()

    def neighbors(self, rank: int) -> list[int]:
        check_index(rank, self.p, "rank")
        return [rank ^ (1 << d) for d in range(self.dims)]


def _mesh_coords(rank: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    coords = []
    for extent in reversed(shape):
        coords.append(rank % extent)
        rank //= extent
    return tuple(reversed(coords))


@dataclass(frozen=True)
class Mesh2D(Topology):
    """Near-square 2-D mesh (no wraparound); hop = Manhattan distance."""

    def _shape(self) -> tuple[int, int]:
        rows = int(self.p**0.5)
        while self.p % rows:
            rows -= 1
        return rows, self.p // rows

    def hops(self, src: int, dst: int) -> int:
        check_index(src, self.p, "src")
        check_index(dst, self.p, "dst")
        shape = self._shape()
        a, b = _mesh_coords(src, shape), _mesh_coords(dst, shape)
        return sum(abs(x - y) for x, y in zip(a, b))


@dataclass(frozen=True)
class Mesh3D(Topology):
    """Near-cubic 3-D torus (the T3D's network); hop = wrapped Manhattan."""

    def _shape(self) -> tuple[int, int, int]:
        z = max(1, round(self.p ** (1.0 / 3.0)))
        while self.p % z:
            z -= 1
        rest = self.p // z
        y = max(1, int(rest**0.5))
        while rest % y:
            y -= 1
        return z, y, rest // y

    def hops(self, src: int, dst: int) -> int:
        check_index(src, self.p, "src")
        check_index(dst, self.p, "dst")
        shape = self._shape()
        a, b = _mesh_coords(src, shape), _mesh_coords(dst, shape)
        return sum(min(abs(x - y), e - abs(x - y)) for x, y, e in zip(a, b, shape))


def make_topology(name: str, p: int) -> Topology:
    """Build a topology by name: hypercube | mesh2d | mesh3d | full."""
    table = {
        "hypercube": Hypercube,
        "mesh2d": Mesh2D,
        "mesh3d": Mesh3D,
        "full": FullyConnected,
    }
    try:
        return table[name](p)
    except KeyError:
        raise ValueError(f"unknown topology {name!r}; options: {sorted(table)}") from None
