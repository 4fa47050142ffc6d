"""Command line interface.

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
from .realize import (
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
    try:
        return args.handler(args, override)
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


def _load(args, kinds):
    return _parse(_read(args.path), kinds)


def _bool(flag):
    return "true" if flag else "false"


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(emit_json(payload))
    else:
        for line in text_lines:
            print(line)


def _emit_complex(args, complex_, extra=None, comment=None):
    """A complex as JSON (vertices, facets, then the extra keys) or as text."""
    if args.format == "json":
        payload = {
            "vertices": list(complex_.vertices),
            "facets": [sorted(f) for f in complex_.facets],
            **(extra or {}),
        }
        print(emit_json(payload))
    else:
        if comment:
            print(comment)
        print(format_complex(complex_), end="")


def _oracle(cases):
    """Report the first (where, fast, slow) case with fast != slow and
    return exit code 4, or None; given a generator, the oracle stops there."""
    for where, fast, slow in cases:
        if fast != slow:
            print(f"oracle disagreement{where}", file=sys.stderr)
            return 4
    return None


# -- subcommands -----------------------------------------------------------


def _cmd_classify(args, override):
    lat = _load(args, ("lattice",)).value
    witness = lat.semimodular_witness
    witness_labels = None if witness is None else [lat.labels[i] for i in witness]
    atom_labels = [lat.labels[a] for a in sorted(lat.atoms)]
    payload = {
        "elements": list(lat.labels),
        "atoms": atom_labels,
        "height": lat.height,
        "atomistic": lat.is_atomistic,
        "semimodular": lat.is_semimodular,
        "semimodular_witness": witness_labels,
        "geometric": lat.is_geometric,
        "boolean": lat.is_boolean,
    }
    text = [
        f"elements: {' '.join(lat.labels)}",
        f"atoms: {' '.join(atom_labels)}",
        f"height: {lat.height}",
        f"atomistic: {_bool(lat.is_atomistic)}",
        f"semimodular: {_bool(lat.is_semimodular)}",
    ]
    if witness_labels:
        text.append("semimodular_witness: " + " ".join(witness_labels))
    text += [
        f"geometric: {_bool(lat.is_geometric)}",
        f"boolean: {_bool(lat.is_boolean)}",
    ]
    _emit(args, payload, text)
    return 0


def _cmd_flats(args, override):
    complex_ = _load(args, ("complex",)).value
    family = all_flats(complex_, override=override)
    if args.dot:
        print(emit_dot_hasse(family.lattice), end="")
        return 0
    lat = family.lattice
    covers = [[lat.labels[x], lat.labels[y]] for x, y in lat.cover_pairs]
    payload = {
        "count": len(family),
        "flats": [complex_.ordered(f) for f in family.flats],
        "covers": covers,
    }
    text = [f"count: {len(family)}", "flats: " + " ".join(lat.labels)]
    text += [f"cover: {low} {high}" for low, high in covers]
    _emit(args, payload, text)
    return 0


def _cmd_closure(args, override):
    complex_ = _load(args, ("complex",)).value
    subset = split_vertex_set(args.set)
    closed_sorted = complex_.ordered(closure(complex_, subset, override=override))
    payload = {"set": subset, "closure": closed_sorted}
    _emit(args, payload, ["closure: " + " ".join(closed_sorted)])
    return 0


def _cmd_brsc(args, override):
    complex_ = _load(args, ("complex",)).value
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
        if code := _oracle(cases):
            return code
    shown = complex_.ordered(violation) if violation else None
    payload = {"boolean_representable": violation is None, "violation": shown}
    text = [f"boolean_representable: {_bool(violation is None)}"]
    if shown:
        text.append("violation: " + " ".join(shown))
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
            text.append(line)
        payload["faces"] = detail
    _emit(args, payload, text)
    return 0 if violation is None else 1


def _cmd_realizable(args, override):
    lat = _load(args, ("lattice",)).value
    report = is_realizable(lat, force_general=args.force_general, override=override)
    if args.oracle:
        general = is_realizable(lat, force_general=True, override=override)
        where = (
            f": {report.method} says {report.realizable}, "
            f"general path says {general.realizable}"
        )
        if code := _oracle([(where, report.realizable, general.realizable)]):
            return code
    text = [
        f"atomistic: {_bool(report.atomistic)}",
        f"realizable: {_bool(report.realizable)}",
        f"method: {report.method}",
    ]
    if report.non_atomistic_witness is not None:
        text.append(f"non_atomistic_witness: {report.non_atomistic_witness}")
    if report.canonical_flat_count is not None:
        text.append(
            f"canonical_flat_count: {report.canonical_flat_count} "
            f"(lattice has {report.lattice_size} elements)"
        )
    if report.supercliques is not None:
        for clique in report.supercliques:
            text.append("superclique: " + " ".join(clique))
    _emit(args, report, text)
    return 0 if report.realizable else 1


def _cmd_construct(args, override):
    lat = _load(args, ("lattice",)).value
    complex_, predicted = realizing_complex(lat, override=override)
    extra = {"predicted_flats": {lab: sorted(predicted[lab]) for lab in lat.labels}}
    comment = None
    if args.verify:
        verify_realization(lat, complex_, predicted, override=override)
        extra["verified"] = True
        comment = "# verified: flat lattice of this complex matches the input"
    _emit_complex(args, complex_, extra, comment)
    return 0


def _cmd_tl(args, override):
    lat = _load(args, ("lattice",)).value
    canonical = transversal_complex(lat)
    if args.oracle:
        atom_labels = [lat.labels[a] for a in sorted(lat.atoms)]
        cases = (
            (
                " on atom set " + " ".join(combo),
                canonical.complex.is_face(combo),
                is_chain_transversal_bruteforce(lat, combo, override=override),
            )
            for r in range(len(atom_labels) + 1)
            for combo in itertools.combinations(atom_labels, r)
        )
        if code := _oracle(cases):
            return code
    _emit_complex(args, canonical.complex)
    return 0


def _cmd_matrix(args, override):
    lat = _load(args, ("lattice",)).value
    rows = boolean_matrix(lat)
    atoms = [lat.labels[a] for a in sorted(lat.atoms)]
    payload = {"elements": list(lat.labels), "atoms": atoms, "rows": rows}
    text = [" ".join(str(v) for v in row) for row in rows]
    _emit(args, payload, text)
    return 0


def _cmd_superclique(args, override):
    doc = _load(args, ("graph", "lattice"))
    graph = doc.value if doc.kind == "graph" else top_join_graph(doc.value)
    fast = None if args.naive and not args.oracle else find_supercliques(graph)
    slow = None
    if args.naive or args.oracle:
        slow = supercliques_bruteforce(graph, override=override)
    if args.oracle:
        if code := _oracle([(" between growth and naive scan", fast, slow)]):
            return code
    listed = [graph.ordered(w) for w in (slow if args.naive else fast)]
    payload = {"count": len(listed), "supercliques": listed}
    text = ["superclique: " + " ".join(w) for w in listed] or ["supercliques: none"]
    _emit(args, payload, text)
    return 0 if listed else 1


def _cmd_hasse(args, override):
    lat = _load(args, ("lattice",)).value
    print(emit_dot_hasse(lat), end="")
    return 0


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

    p = sub.add_parser("classify", parents=[common], help="lattice structure report")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("flats", parents=[common], help="list flats of a complex")
    p.add_argument("--dot", action="store_true", help="emit the flat lattice as DOT")
    p.set_defaults(handler=_cmd_flats)

    p = sub.add_parser("closure", parents=[common], help="closure of a vertex set")
    p.add_argument(
        "--set",
        required=True,
        help=r"comma or space separated vertices; write \, and \\ for , and \ in a name",
    )
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser(
        "brsc", parents=[common], help="decide boolean representability"
    )
    p.add_argument("--verbose", action="store_true", help="per-face witnesses")
    p.add_argument("--oracle", action="store_true", help="cross-check with brute force")
    p.set_defaults(handler=_cmd_brsc)

    p = sub.add_parser(
        "realizable", parents=[common], help="is the lattice a lattice of flats"
    )
    p.add_argument(
        "--force-general",
        action="store_true",
        help="skip shortcuts and count canonical flats",
    )
    p.add_argument("--oracle", action="store_true", help="cross-check with general path")
    p.set_defaults(handler=_cmd_realizable)

    p = sub.add_parser(
        "construct", parents=[common], help="complex whose flats realize the lattice"
    )
    p.add_argument("--verify", action="store_true", help="verify the predicted map")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser(
        "tl", parents=[common], help="canonical complex of an atomistic lattice"
    )
    p.add_argument("--oracle", action="store_true", help="cross-check with chain search")
    p.set_defaults(handler=_cmd_tl)

    p = sub.add_parser("matrix", parents=[common], help="element/atom 0-1 matrix")
    p.set_defaults(handler=_cmd_matrix)

    p = sub.add_parser(
        "superclique", parents=[common], help="supercliques of a graph or atom graph"
    )
    p.add_argument("--naive", action="store_true", help="use the subset scan")
    p.add_argument("--oracle", action="store_true", help="cross-check growth vs scan")
    p.set_defaults(handler=_cmd_superclique)

    p = sub.add_parser("hasse", parents=[common], help="Hasse diagram as DOT")
    p.set_defaults(handler=_cmd_hasse)

    return parser


if __name__ == "__main__":
    sys.exit(main())
