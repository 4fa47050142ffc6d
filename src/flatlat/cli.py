"""Command line interface.

The table _COMMANDS declares each command once: its handler, the document
kinds it reads, its help text and its switches.  Each handler maps the
parsed document to its report, (exit code, payload, text): payload is what
--format json writes, or None when the text is written in either format,
and text is the text; either, where it costs work, is a function making it.
main reads and parses the document, calls the handler, writes the report
and maps errors to exit codes; no other code writes.

Exit codes: 0 for success or a decided-true answer, 1 for decided-false,
2 for input errors, 3 when a soft limit is exceeded, 4 when --oracle finds a
disagreement between a fast path and its brute-force oracle.  Setting
FLATLAT_LIMIT_OVERRIDE=1 lifts the soft limits.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import Callable, NamedTuple

from .errors import FlatlatError, LimitExceeded
from .flats import (
    all_flats,
    br_violation,
    closure,
    is_transversal_bruteforce,
    split_vertex_set,
    transversal_witness,
)
from .formats import _parse, emit_dot_hasse, emit_json, format_complex
from .graphs import find_supercliques, supercliques_bruteforce, top_join_graph
from .lattice import FiniteLattice
from .realize import (
    _DECIDERS,
    boolean_matrix,
    is_chain_transversal_bruteforce,
    is_realizable,
    realizing_complex,
    transversal_complex,
    verify_realization,
)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    override = os.environ.get("FLATLAT_LIMIT_OVERRIDE") == "1"
    command = _COMMANDS[args.command]
    try:
        value = _parse(_read(args.path), command.kinds).value
        code, payload, text = command.handler(args, value, override)
        if payload is not None and args.format == "json":
            text = emit_json(payload() if callable(payload) else payload) + "\n"
        elif callable(text):
            text = text()
        sys.stdout.write(text)
        return code
    except _Disagreement as exc:
        print(f"oracle disagreement{exc}", file=sys.stderr)
        return 4
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FlatlatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _lines(payload, keys=None):
    """One `key: value` line per key whose value is not None: a list as its
    items joined by spaces, a bool as true or false."""
    text = ""
    for key in payload if keys is None else keys:
        value = payload.get(key)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, list):
            value = " ".join(value)
        text += f"{key}: {value}\n"
    return text


def _complex_payload(complex_, extra):
    """A complex's JSON payload: vertices, facets, then the extra keys."""
    facets = [sorted(f) for f in complex_.facets]
    return {"vertices": list(complex_.vertices), "facets": facets, **extra}


class _Disagreement(Exception):
    """A fast path and its brute-force oracle disagree; main exits 4."""


def _oracle(cases):
    """Raise _Disagreement at the first (where, fast, slow) case with
    fast != slow; given a generator, the oracle stops there."""
    for where, fast, slow in cases:
        if fast != slow:
            raise _Disagreement(where)


# -- subcommands -----------------------------------------------------------


def _cmd_classify(args, lat, override):
    witness = lat.semimodular_witness
    witness_labels = None if witness is None else [lat.labels[i] for i in witness]
    payload = {
        "elements": list(lat.labels),
        "atoms": [lat.labels[a] for a in sorted(lat.atoms)],
        "height": lat.height,
        "atomistic": lat.is_atomistic,
        "semimodular": lat.is_semimodular,
        "semimodular_witness": witness_labels,
        "geometric": lat.is_geometric,
        "boolean": lat.is_boolean,
    }
    return 0, payload, _lines(payload)


def _cmd_flats(args, complex_, override):
    family = all_flats(complex_, override=override)
    lat = family.lattice
    if args.dot:
        return 0, None, emit_dot_hasse(lat)
    covers = [[lat.labels[x], lat.labels[y]] for x, y in lat.cover_pairs]
    payload = {
        "count": len(family),
        "flats": [complex_.ordered(f) for f in family.flats],
        "covers": covers,
    }
    text = f"count: {len(family)}\nflats: {' '.join(lat.labels)}\n"
    text += "".join(f"cover: {low} {high}\n" for low, high in covers)
    return 0, payload, text


def _cmd_closure(args, complex_, override):
    subset = split_vertex_set(args.set)
    closed_sorted = complex_.ordered(closure(complex_, subset, override=override))
    payload = {"set": subset, "closure": closed_sorted}
    return 0, payload, _lines(payload, ["closure"])


def _cmd_brsc(args, complex_, override):
    violation = br_violation(complex_, override=override)
    faces = complex_.faces if args.verbose or args.oracle else ()
    witnesses = [transversal_witness(complex_, f, override=override) for f in faces]
    if args.oracle:
        cases = (
            (
                " on face " + " ".join(complex_.ordered(face)),
                witness is not None,
                is_transversal_bruteforce(complex_, face, override=override),
            )
            for face, witness in zip(faces, witnesses)
        )
        _oracle(cases)
    shown = complex_.ordered(violation) if violation else None
    payload = {"boolean_representable": violation is None, "violation": shown}
    text = _lines(payload)
    if args.verbose:
        detail = []
        for face, witness in zip(faces, witnesses):
            listed = complex_.ordered(face)
            entry = {"face": listed, "transversal": witness is not None}
            line = "face {" + ",".join(listed) + "}"
            if witness is not None:
                entry["ordering"] = list(witness.ordering)
                entry["chain"] = [complex_.ordered(f) for f in witness.chain]
                line += ": ordering" + "".join(f" {x}" for x in witness.ordering)
            else:
                line += ": no transversal ordering"
            detail.append(entry)
            text += line + "\n"
        payload["faces"] = detail
    return 0 if violation is None else 1, payload, text


def _cmd_realizable(args, lat, override):
    report = is_realizable(lat, force_general=args.force_general, override=override)
    if args.oracle and report.atomistic:  # every row that applies, against the general row
        general = report.realizable if report.method == "general" else is_realizable(
            lat, force_general=True, override=override
        ).realizable
        _oracle(
            (f": {method} says {answer[0]}, general path says {general}", answer[0], general)
            for method, decide in _DECIDERS[:-1]
            if (answer := decide(lat, override)) is not None
        )
    text = _lines(
        report.to_jsonable(),
        ["atomistic", "realizable", "method", "non_atomistic_witness"],
    )
    if report.canonical_flat_count is not None:
        text += (
            f"canonical_flat_count: {report.canonical_flat_count} "
            f"(lattice has {report.lattice_size} elements)\n"
        )
    for clique in report.supercliques or ():
        text += "superclique: " + " ".join(clique) + "\n"
    return 0 if report.realizable else 1, report, text


def _cmd_construct(args, lat, override):
    complex_, predicted = realizing_complex(lat, override=override)
    extra = {"predicted_flats": {lab: sorted(predicted[lab]) for lab in lat.labels}}
    comment = ""
    if args.verify:
        verify_realization(lat, complex_, predicted, override=override)
        extra["verified"] = True
        comment = "# verified: flat lattice of this complex matches the input\n"
    return (
        0,
        lambda: _complex_payload(complex_, extra),
        lambda: comment + format_complex(complex_),
    )


def _cmd_tl(args, lat, override):
    canonical = transversal_complex(lat, override).complex
    if args.oracle:
        atom_labels = canonical.vertices
        cases = (
            (
                " on atom set " + " ".join(combo),
                canonical.is_face(combo),
                is_chain_transversal_bruteforce(lat, combo, override=override),
            )
            for r in range(len(atom_labels) + 1)
            for combo in itertools.combinations(atom_labels, r)
        )
        _oracle(cases)
    return 0, lambda: _complex_payload(canonical, {}), lambda: format_complex(canonical)


def _cmd_matrix(args, lat, override):
    rows = boolean_matrix(lat)
    atoms = [lat.labels[a] for a in sorted(lat.atoms)]
    payload = {"elements": list(lat.labels), "atoms": atoms, "rows": rows}
    return 0, payload, "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _cmd_superclique(args, value, override):
    graph = top_join_graph(value) if isinstance(value, FiniteLattice) else value
    fast = None if args.naive and not args.oracle else find_supercliques(graph)
    slow = None
    if args.naive or args.oracle:
        slow = supercliques_bruteforce(graph, override=override)
    if args.oracle:
        _oracle([(" between growth and naive scan", fast, slow)])
    listed = [graph.ordered(w) for w in (slow if args.naive else fast)]
    payload = {"count": len(listed), "supercliques": listed}
    text = "".join("superclique: " + " ".join(w) + "\n" for w in listed)
    return 0 if listed else 1, payload, text or "supercliques: none\n"


def _cmd_hasse(args, lat, override):
    return 0, None, emit_dot_hasse(lat)


class _Command(NamedTuple):
    """One command: what it runs, what it reads and how it is called."""

    handler: Callable  # (args, document value, override) -> (code, payload, text)
    kinds: tuple  # the document kinds it reads
    help: str
    switches: dict  # flag -> help of an on/off switch, or its add_argument keywords


_SET_HELP = r"comma or space separated vertices; write \, and \\ for , and \ in a name"
_COMMANDS = {
    "classify": _Command(_cmd_classify, ("lattice",), "lattice structure report", {}),
    "flats": _Command(
        _cmd_flats, ("complex",), "list flats of a complex",
        {"--dot": "emit the flat lattice as DOT"},
    ),
    "closure": _Command(
        _cmd_closure, ("complex",), "closure of a vertex set",
        {"--set": {"required": True, "help": _SET_HELP}},
    ),
    "brsc": _Command(
        _cmd_brsc, ("complex",), "decide boolean representability",
        {"--verbose": "per-face witnesses", "--oracle": "cross-check with brute force"},
    ),
    "realizable": _Command(
        _cmd_realizable, ("lattice",), "is the lattice a lattice of flats",
        {
            "--force-general": "skip shortcuts and count canonical flats",
            "--oracle": "cross-check with general path",
        },
    ),
    "construct": _Command(
        _cmd_construct, ("lattice",), "complex whose flats realize the lattice",
        {"--verify": "verify the predicted map"},
    ),
    "tl": _Command(
        _cmd_tl, ("lattice",), "canonical complex of an atomistic lattice",
        {"--oracle": "cross-check with chain search"},
    ),
    "matrix": _Command(_cmd_matrix, ("lattice",), "element/atom 0-1 matrix", {}),
    "superclique": _Command(
        _cmd_superclique, ("graph", "lattice"), "supercliques of a graph or atom graph",
        {"--naive": "use the subset scan", "--oracle": "cross-check growth vs scan"},
    ),
    "hasse": _Command(_cmd_hasse, ("lattice",), "Hasse diagram as DOT", {}),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="flatlat",
        description="lattices of flats, boolean representability and realizability",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("path", help="input file, or - for stdin")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for flag, spec in command.switches.items():
            if isinstance(spec, str):
                spec = {"action": "store_true", "help": spec}
            p.add_argument(flag, **spec)
    return parser


if __name__ == "__main__":
    sys.exit(main())
