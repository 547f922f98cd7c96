"""Witness mappings and their text format.

Mapping text format (whitespace separated, ``#`` starts a comment):

    n <pattern_vertex> <data_vertex>
    p <pattern_u> <pattern_w> : <v1> <v2> ... <vk>

One ``n`` line per pattern vertex and one ``p`` line per pattern edge,
where the ``v`` sequence lists the mapped data path from the image of
``pattern_u`` to the image of ``pattern_w``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import GraphFormatError

__all__ = ["Mapping"]


@dataclass
class Mapping:
    """Complete witness: injective node map plus one data path per pattern edge.

    ``edge_path_map`` keys are pattern edges ``(a, b)`` with ``a < b``;
    each value is the vertex sequence of the mapped data path, oriented
    from ``node_map[a]`` to ``node_map[b]``.
    """

    node_map: dict[int, int]
    edge_path_map: dict[tuple[int, int], tuple[int, ...]]

    def canonical_key(self):
        """Hashable identity used for duplicate detection and set comparisons."""
        nodes = tuple(sorted(self.node_map.items()))
        edges = tuple(sorted((e, tuple(p)) for e, p in self.edge_path_map.items()))
        return nodes, edges

    def to_text(self) -> str:
        lines = [f"n {a} {b}" for a, b in sorted(self.node_map.items())]
        for (a, b), path in sorted(self.edge_path_map.items()):
            lines.append(f"p {a} {b} : " + " ".join(str(v) for v in path))
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Mapping":
        node_map: dict[int, int] = {}
        edge_map: dict[tuple[int, int], tuple[int, ...]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "n":
                if len(parts) != 3:
                    raise GraphFormatError("expected 'n <pattern> <data>'", lineno)
                try:
                    a, b = int(parts[1]), int(parts[2])
                except ValueError:
                    raise GraphFormatError("node match ids must be integers", lineno) from None
                if a in node_map:
                    raise GraphFormatError(f"pattern vertex {a} mapped twice", lineno)
                node_map[a] = b
            elif parts[0] == "p":
                if len(parts) < 6 or parts[3] != ":":
                    raise GraphFormatError("expected 'p <u> <w> : <v1> ... <vk>'", lineno)
                try:
                    u, w = int(parts[1]), int(parts[2])
                    path = tuple(int(x) for x in parts[4:])
                except ValueError:
                    raise GraphFormatError("edge-path ids must be integers", lineno) from None
                edge = (u, w) if u < w else (w, u)
                if edge in edge_map:
                    raise GraphFormatError(f"pattern edge {edge} mapped twice", lineno)
                if u > w:
                    path = tuple(reversed(path))
                edge_map[edge] = path
            else:
                raise GraphFormatError(f"unrecognized record {parts[0]!r}", lineno)
        return cls(node_map, edge_map)
