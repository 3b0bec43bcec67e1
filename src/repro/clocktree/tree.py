"""Clock tree datastructure.

A tree is a set of nodes (the root is the clock generator); each non-root
node hangs from its parent through a :class:`Wire` and may carry a
:class:`Buffer` at its input.  Sinks (leaves) have a load capacitance -
the clock pins of the flip-flops in that region.

Geometry is 2-D; wire electrical length defaults to the Manhattan distance
between endpoints but can be elongated (wire snaking, as used by zero-skew
routers to balance delays).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

Point = Tuple[float, float]


def manhattan(a: Point, b: Point) -> float:
    """Manhattan distance between two points (metres)."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass
class Buffer:
    """A clock buffer: ideal restoring stage with RC driving behaviour.

    Attributes
    ----------
    drive_resistance:
        Output resistance, ohms.
    input_capacitance:
        Load presented to the upstream net, farads.
    intrinsic_delay:
        Input-to-output delay at zero load, seconds.
    """

    drive_resistance: float = 400.0
    input_capacitance: float = 30e-15
    intrinsic_delay: float = 150e-12

    def scaled(self, factor: float) -> "Buffer":
        """A copy whose resistance and delay are multiplied by ``factor``
        (used by the buffer-slowdown fault)."""
        return Buffer(
            drive_resistance=self.drive_resistance * factor,
            input_capacitance=self.input_capacitance,
            intrinsic_delay=self.intrinsic_delay * factor,
        )


@dataclass
class Wire:
    """The wire segment connecting a node to its parent.

    ``length`` is the electrical length; ``extra_resistance`` and
    ``extra_capacitance`` model injected defects (resistive opens,
    crosstalk coupling load).
    """

    length: float
    extra_resistance: float = 0.0
    extra_capacitance: float = 0.0


@dataclass
class TreeNode:
    """One node of the clock tree."""

    name: str
    position: Point
    wire: Optional[Wire] = None          # None only for the root.
    buffer: Optional[Buffer] = None
    sink_capacitance: float = 0.0
    children: List["TreeNode"] = field(default_factory=list)
    parent: Optional["TreeNode"] = field(default=None, repr=False)

    @property
    def is_sink(self) -> bool:
        """Leaves of the tree are the monitored clock endpoints."""
        return not self.children

    def add_child(self, child: "TreeNode") -> "TreeNode":
        """Attach ``child`` (its ``wire`` must be set)."""
        if child.wire is None:
            raise ValueError(f"child {child.name} needs a wire to its parent")
        child.parent = self
        self.children.append(child)
        return child


@dataclass
class ClockTree:
    """A rooted clock distribution tree."""

    root: TreeNode
    name: str = "clock-tree"

    def walk(self) -> Iterator[TreeNode]:
        """Depth-first iteration over all nodes."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def sinks(self) -> List[TreeNode]:
        """All leaves, in depth-first order."""
        return [n for n in self.walk() if n.is_sink]

    def node(self, name: str) -> TreeNode:
        """Look up a node by name."""
        for n in self.walk():
            if n.name == name:
                return n
        raise KeyError(f"no node named {name!r} in {self.name}")

    def path_to(self, node: TreeNode) -> List[TreeNode]:
        """Nodes from the root down to ``node`` inclusive."""
        path = [node]
        while path[-1].parent is not None:
            path.append(path[-1].parent)
        return list(reversed(path))

    def depth(self) -> int:
        """Longest root-to-leaf node count."""
        return max(len(self.path_to(s)) for s in self.sinks())

    def total_wire_length(self) -> float:
        """Sum of all wire electrical lengths (a router quality metric)."""
        return sum(n.wire.length for n in self.walk() if n.wire is not None)
