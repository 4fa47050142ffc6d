"""Text input and output: the line-based object format, DOT and JSON.

The text format is line oriented.  # starts a comment, blank lines are
skipped, tokens are whitespace separated.  An optional "format 1" header may
precede the kind line ("lattice", "complex" or "graph"); the kind-specific
directives follow:

    lattice                     complex                 graph
    elements B 1 2 3 m T        vertices 1 2 3 4        vertices a b c
    cover B 1                   facet 1 2 3             edge a b
    ...                         ...                     ...

Lattices are given by order generators (lower upper); the order is their
reflexive-transitive closure.  Unknown directives are errors.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from ._util import bit_indices
from .complexes import SimplicialComplex
from .errors import ParseError
from .graphs import SimpleGraph
from .lattice import FiniteLattice, lattice_from_covers

KINDS = ("lattice", "complex", "graph")


@dataclass(frozen=True)
class Document:
    kind: str
    value: object


def parse(text):
    """Parse a text document into a Document(kind, value)."""
    lines = _directive_lines(text)
    if not lines:
        raise ParseError(1, 1, "empty document: expected a kind line")
    pos = 0
    line_no, tokens = lines[pos]
    if tokens[0][0] == "format":
        if len(tokens) != 2 or tokens[1][0] != "1":
            where = tokens[1] if len(tokens) > 1 else tokens[0]
            raise ParseError(line_no, where[1], "unsupported format version")
        pos += 1
        if pos == len(lines):
            raise ParseError(line_no, tokens[0][1], "expected a kind line")
        line_no, tokens = lines[pos]
    kind, col = tokens[0]
    if kind not in KINDS:
        raise ParseError(line_no, col, f"unknown kind {kind!r}")
    if len(tokens) > 1:
        raise ParseError(line_no, tokens[1][1], "unexpected token after kind")
    body = lines[pos + 1 :]
    if kind == "lattice":
        return Document(kind, _parse_lattice(body))
    if kind == "complex":
        return Document(kind, _parse_complex(body))
    return Document(kind, _parse_graph(body))


def _directive_lines(text):
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", body)]
        if tokens:
            out.append((line_no, tokens))
    return out


def _declared(header_name, body):
    if not body:
        raise ParseError(1, 1, f"expected a {header_name} line")
    line_no, tokens = body[0]
    word, col = tokens[0]
    if word != header_name:
        raise ParseError(line_no, col, f"expected {header_name!r}, found {word!r}")
    if len(tokens) == 1:
        raise ParseError(line_no, col, f"{header_name} line needs at least one label")
    labels = []
    seen = set()
    for tok, tok_col in tokens[1:]:
        if tok in seen:
            raise ParseError(line_no, tok_col, f"duplicate label {tok!r}")
        seen.add(tok)
        labels.append(tok)
    return labels, seen, body[1:]


def _directives(rest, declared, word, noun, pair):
    """Yield (line, label tokens) for each line after the header.

    Each line must start with the directive word, name exactly two labels
    when pair is set, and name only declared labels.  Lines are checked as
    they are consumed, so the first error in the document is the one raised.
    """
    for line_no, tokens in rest:
        head, col = tokens[0]
        if head != word:
            raise ParseError(line_no, col, f"unknown directive {head!r}")
        if pair and len(tokens) != 3:
            raise ParseError(line_no, col, f"{word} needs exactly two labels")
        for tok, tok_col in tokens[1:]:
            if tok not in declared:
                raise ParseError(line_no, tok_col, f"unknown {noun} {tok!r}")
        yield line_no, tokens[1:]


def _parse_lattice(body):
    labels, declared, rest = _declared("elements", body)
    lines = _directives(rest, declared, "cover", "element", pair=True)
    covers = [(low, high) for _, ((low, _), (high, _)) in lines]
    return lattice_from_covers(labels, covers)


def _parse_complex(body):
    labels, declared, rest = _declared("vertices", body)
    lines = _directives(rest, declared, "facet", "vertex", pair=False)
    faces = [[tok for tok, _ in tokens] for _, tokens in lines]
    return SimplicialComplex(labels, faces)


def _parse_graph(body):
    labels, declared, rest = _declared("vertices", body)
    edges = []
    lines = _directives(rest, declared, "edge", "vertex", pair=True)
    for line_no, ((a, _), (b, col)) in lines:
        if a == b:
            raise ParseError(line_no, col, "loop edges are not allowed")
        edges.append((a, b))
    return SimpleGraph(labels, edges)


# -- emitters ------------------------------------------------------------


def format_lattice(lattice: FiniteLattice):
    lines = ["lattice", "elements " + " ".join(lattice.labels)]
    for x, y in lattice.cover_pairs:
        lines.append(f"cover {lattice.labels[x]} {lattice.labels[y]}")
    return "\n".join(lines) + "\n"


def format_complex(complex_: SimplicialComplex):
    """Facets are listed in the order of their vertex-index tuples."""
    lines = ["complex", "vertices " + " ".join(complex_.vertices)]
    for facet in sorted(list(bit_indices(m)) for m in complex_.facet_masks if m):
        lines.append("facet " + " ".join(complex_.vertices[i] for i in facet))
    return "\n".join(lines) + "\n"


def format_graph(graph: SimpleGraph):
    lines = ["graph", "vertices " + " ".join(graph.vertices)]
    for a, b in graph.edges:
        lines.append(f"edge {a} {b}")
    return "\n".join(lines) + "\n"


def _dot_quote(label):
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot_hasse(lattice: FiniteLattice):
    """Hasse diagram as DOT, drawn upward from the bottom element."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for lab in lattice.labels:
        lines.append(f"  {_dot_quote(lab)};")
    for x, y in lattice.cover_pairs:
        lines.append(f"  {_dot_quote(lattice.labels[x])} -> {_dot_quote(lattice.labels[y])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_json(value):
    """Serialize a report; dict order is preserved, set witnesses sorted."""
    return json.dumps(_jsonable(value), indent=2)


def _jsonable(value):
    to_jsonable = getattr(value, "to_jsonable", None)
    if to_jsonable is not None:
        return _jsonable(to_jsonable())
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        items = [_jsonable(v) for v in value]
        try:
            return sorted(items)
        except TypeError:
            return sorted(items, key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
