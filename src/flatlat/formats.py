"""Text input and output: the line-based object format, DOT and JSON.

The text format is line oriented.  # starts a comment, blank lines are
skipped, tokens are whitespace separated.  An optional "format 1" header may
precede the kind line ("lattice", "complex" or "graph"); the kind's header
line and its directives follow:

    lattice                     complex                 graph
    elements B 1 2 3 m T        vertices 1 2 3 4        vertices a b c
    cover B 1                   facet 1 2 3             edge a b
    ...                         ...                     ...

Lattices are given by order generators (lower upper); the order is their
reflexive-transitive closure.  Unknown directives are errors.

The table _GRAMMAR is the one definition of the format: each kind's header
word, directive word and label rules, and the object it builds.  parse reads
and the format_* emitters write every kind through it.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from ._util import bit_indices
from .complexes import SimplicialComplex
from .errors import ParseError
from .graphs import SimpleGraph
from .lattice import FiniteLattice, lattice_from_covers


class _Grammar(NamedTuple):
    """One kind's words: the header line and each directive line."""

    header: str  # the word of the line declaring the labels
    directive: str  # the word of each line after it
    noun: str  # an undeclared label in a directive is an unknown <noun>
    pair: bool  # a directive names exactly two labels, or else any number
    distinct: bool  # the labels of one directive must differ
    build: Callable  # (labels, rows of directive labels) -> the value


_GRAMMAR = {
    "lattice": _Grammar("elements", "cover", "element", True, False, lattice_from_covers),
    "complex": _Grammar("vertices", "facet", "vertex", False, False, SimplicialComplex),
    "graph": _Grammar("vertices", "edge", "vertex", True, True, SimpleGraph),
}


class Document(NamedTuple):
    kind: str
    value: object


def parse(text):
    """Parse a text document into a Document(kind, value)."""
    return _parse(text, _GRAMMAR)


def _parse(text, kinds):
    """parse, for a document that must be of one of the given kinds.

    The lines are checked in document order, so the first error in the
    document is the one raised; a document of another kind is rejected at
    its kind token once it has been read.
    """
    lines = _directive_lines(text)
    if not lines:
        raise ParseError(1, 1, "empty document: expected a kind line")
    line_no, tokens = lines[0]
    if tokens[0][0] == "format":
        if len(tokens) != 2 or tokens[1][0] != "1":
            where = tokens[1] if len(tokens) > 1 else tokens[0]
            raise ParseError(line_no, where[1], "unsupported format version")
        lines = lines[1:]
        if not lines:
            raise ParseError(line_no, tokens[0][1], "expected a kind line")
        line_no, tokens = lines[0]
    kind, col = tokens[0]
    grammar = _GRAMMAR.get(kind)
    if grammar is None:
        raise ParseError(line_no, col, f"unknown kind {kind!r}")
    if len(tokens) > 1:
        raise ParseError(line_no, tokens[1][1], "unexpected token after kind")
    header = grammar.header
    if len(lines) == 1:
        article = "an" if header[0] in "aeiou" else "a"
        raise ParseError(line_no, col, f"expected {article} {header} line")
    head_no, ((word, head_col), *declared) = lines[1]
    if word != header:
        raise ParseError(head_no, head_col, f"expected {header!r}, found {word!r}")
    if not declared:
        raise ParseError(head_no, head_col, f"{header} line needs at least one label")
    labels = {}
    for tok, tok_col in declared:
        if tok in labels:
            raise ParseError(head_no, tok_col, f"duplicate label {tok!r}")
        labels[tok] = None
    rows = []
    for row_no, ((word, word_col), *row) in lines[2:]:
        if word != grammar.directive:
            raise ParseError(row_no, word_col, f"unknown directive {word!r}")
        if grammar.pair and len(row) != 2:
            raise ParseError(row_no, word_col, f"{word} needs exactly two labels")
        for tok, tok_col in row:
            if tok not in labels:
                raise ParseError(row_no, tok_col, f"unknown {grammar.noun} {tok!r}")
        if grammar.distinct and row[0][0] == row[1][0]:
            raise ParseError(row_no, row[1][1], f"loop {word}s are not allowed")
        rows.append([tok for tok, _ in row])
    value = grammar.build(list(labels), rows)
    if kind not in kinds:
        expected = " or ".join(kinds)
        raise ParseError(line_no, col, f"expected a {expected} document, found {kind}")
    return Document(kind, value)


def _directive_lines(text):
    out = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", body)]
        if tokens:
            out.append((line_no, tokens))
    return out


# -- emitters ------------------------------------------------------------


def _format(kind, labels, rows):
    """The document; ValueError on a label that is not read back as one token."""
    grammar = _GRAMMAR[kind]
    for label in labels:
        if not re.fullmatch(r"[^\s#]+", label):
            raise ValueError(
                f"cannot write {grammar.noun} {label!r}: a label is one token, "
                "nonempty and without whitespace or #"
            )
    lines = [kind, " ".join([grammar.header, *labels])]
    lines += [" ".join([grammar.directive, *row]) for row in rows]
    return "\n".join(lines) + "\n"


def format_lattice(lattice: FiniteLattice):
    labels = lattice.labels
    covers = [(labels[x], labels[y]) for x, y in lattice.cover_pairs]
    return _format("lattice", labels, covers)


def format_complex(complex_: SimplicialComplex):
    """Facets are listed in the order of their vertex-index tuples."""
    vertices = complex_.vertices
    facets = sorted(list(bit_indices(m)) for m in complex_.facet_masks if m)
    return _format("complex", vertices, [[vertices[i] for i in f] for f in facets])


def format_graph(graph: SimpleGraph):
    return _format("graph", graph.vertices, graph.edges)


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
    """Serialize a report; dict order is preserved, set witnesses sorted.

    json is imported here, and in _jsonable, so that text output never
    loads it."""
    import json

    value = _jsonable(value)  # frees a payload made for this call before dumping
    return json.dumps(value, indent=2)


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
            import json

            return sorted(items, key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value
