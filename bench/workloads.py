"""The four workloads: construct, census, brsc and cli.

Each workload builds its input structures and their expected answers once
from the seed, then runs passes.  A pass rebuilds every input with labels no
earlier operation used and takes each one to a verdict.  The library is only
ever called through ``Recorder.call``, so a traced pass has one span per call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import selectors
import subprocess
import sys
from time import perf_counter

import flatlat.cli as flatlat_cli
from flatlat import (
    FiniteLattice,
    LoopsPresent,
    SimpleGraph,
    SimplicialComplex,
    all_flats,
    boolean_matrix,
    br_violation,
    closure,
    enumerate_lattices,
    find_supercliques,
    format_complex,
    format_graph,
    format_lattice,
    is_realizable,
    parse,
    realizing_complex,
    simplification,
    supercliques_bruteforce,
    transversal_complex,
    verify_realizing_complex,
)

import inputs as gen
import reference as ref


def _labels(tag, n):
    return [f"{tag}_{i}" for i in range(n)]


def _lattice(rec, tag, family):
    labels = _labels(tag, len(family))
    return labels, rec.call("lattice.build", FiniteLattice, labels, gen.family_order(family))


def _below_counts(family):
    """For each element, how many non-bottom elements lie below it."""
    bottom = min(family, key=len)
    return [sum(1 for b in family if b != bottom and b <= a) for a in family]


class Workload:
    name = ""
    # percentile reported as op_tail_s; the run checks that at least ten
    # samples lie beyond it and falls back to a lower one otherwise
    tail_pct = 90

    def __init__(self, seed, root, small):
        self.rng = random.Random(seed)
        self.labels = gen.Labels(self.rng)
        self.root = root
        self.small = small

    def known_defects(self):
        """Run the inputs that fail because of a known defect of the package,
        once and outside the operations.  Returns {name: why it still fails,
        or None once it behaves as expected}."""
        return {}

    def run_pass(self, rec):
        raise NotImplementedError

    def peak_rss_kib(self, own):
        """Peak memory to report, given this process's peak after pass one."""
        return own


# -- construct -----------------------------------------------------------------


class Construct(Workload):
    name = "construct"
    tail_pct = 75

    def __init__(self, seed, root, small):
        super().__init__(seed, root, small)
        if small:
            chains, atoms, randoms = (4, 5), 2, (5, 5)
        else:
            chains, atoms, randoms = (6, 7, 8), 3, (6,) * 5 + (7,) * 11
        self.inputs = [(f"chain{k}", gen.chain_family(k)) for k in chains]
        self.inputs.append((f"boolean{2 ** atoms}", gen.boolean_family(atoms)))
        self.inputs += [
            (f"random{k}", gen.random_family(self.rng, k)) for k in randoms
        ]

    def run_pass(self, rec):
        for name, family in self.inputs:
            labels, lat = _lattice(rec, self.labels.tag(), family)
            with rec.op(name, hash(lat)) as op:
                cx, predicted = rec.call(
                    "realize.realizing_complex", realizing_complex, lat
                )
                iso = rec.call("realize.verify", verify_realizing_complex, lat)
                op.stop()
                n = len(family)
                vertices = 3 * (n - 1)
                below = _below_counts(family)
                op.check(len(cx.vertices) == vertices, "realize", "vertex count")
                op.check(
                    all(len(predicted[labels[i]]) == 3 * below[i] for i in range(n)),
                    "realize",
                    "predicted flat sizes",
                )
                # verify raises unless the complex has one flat per element
                op.check(sorted(iso.mapping) == list(range(n)), "realize", "map")
                rec.count("realize.vertices", vertices)
                rec.count("realize.facets", len(cx.facet_masks))
                rec.count("flats.found", n)
                rec.count("flats.subsets_scanned", 2**vertices)


# -- census --------------------------------------------------------------------


def _classify(lat):
    return (
        sorted(lat.atoms),
        lat.height,
        lat.is_atomistic,
        lat.semimodular_witness,
        lat.is_geometric,
        lat.is_boolean,
    )


class Census(Workload):
    name = "census"
    tail_pct = 99

    def __init__(self, seed, root, small):
        super().__init__(seed, root, small)
        self.max_size = 6 if small else 8

    def run_pass(self, rec):
        ops_by_size = {}
        tally = {}  # size -> [classes, atomistic, realizable]
        classes = enumerate_lattices(self.max_size, override=True)
        while True:
            start = perf_counter()
            found = rec.call("lattice.enumerate", next, classes, None)
            rec.busy(start, perf_counter() - start)
            if found is None:
                break
            rec.count("lattice.classes")
            n = len(found)
            order = [[int(found.leq(i, j)) for j in range(n)] for i in range(n)]
            tag = self.labels.tag()
            lat = rec.call("lattice.build", FiniteLattice, _labels(tag, n), order)
            short = general = None
            with rec.op(f"class{n}", hash(lat)) as op:
                info = rec.call("lattice.classify", _classify, lat)
                atomistic = info[2]
                short = rec.call("realize.is_realizable", is_realizable, lat)
                general = rec.call(
                    "realize.is_realizable", is_realizable, lat, force_general=True
                )
                if atomistic and n > 1:
                    canonical = rec.call(
                        "realize.transversal_complex", transversal_complex, lat
                    )
                    rows = rec.call("realize.boolean_matrix", boolean_matrix, lat)
                op.stop()
                op.check(short.realizable == general.realizable, "realize", "shortcut != general")
                op.check(short.atomistic == general.atomistic == atomistic, "realize", "atomistic")
                if atomistic and n > 1:
                    atoms = info[0]
                    op.check(len(canonical.complex.vertices) == len(atoms), "realize", "tl vertices")
                    op.check(
                        len(rows) == n
                        and len({tuple(r) for r in rows}) == n
                        and all(len(r) == len(atoms) for r in rows),
                        "realize",
                        "boolean matrix shape",
                    )
                rec.count(f"realize.method.{short.method}")
            ops_by_size.setdefault(n, []).append(op)
            t = tally.setdefault(n, [0, 0, 0])
            t[0] += 1
            if general is not None:
                t[1] += general.atomistic
                t[2] += general.realizable
        for n in range(1, self.max_size + 1):
            got = tuple(tally.get(n, (0, 0, 0)))
            want = (ref.A006966[n - 1], ref.CENSUS_ATOMISTIC[n - 1], ref.CENSUS_REALIZABLE[n - 1])
            if got != want:
                layer = "lattice" if got[0] != want[0] else "realize"
                for op in ops_by_size.get(n, ()):
                    op.fail(layer, f"size {n} census {got} != {want}")


# -- brsc ----------------------------------------------------------------------


class _Expect:
    """Expected answers for one complex, over vertex indices.

    The defaults are those of a simple matroid: boolean representable, no
    exchange violation, every vertex alone in its closure class.
    """

    def __init__(self, n, facets, flat_count, closure_of):
        self.n = n
        self.facets = facets
        self.faces = len(ref.SmallComplex(n, facets).faces)
        self.flat_count = flat_count
        self.closure_of = closure_of
        self.flats = None
        self.br = None
        self.exchange = None
        self.classes = [1 << v for v in range(n)]

    @classmethod
    def by_definition(cls, n, facets):
        small = ref.SmallComplex(n, facets)
        flats = small.flats()
        out = cls(n, facets, len(flats), small.closure)
        out.flats = set(flats)
        out.br = small.br_violation()
        out.exchange = small.exchange_violation()
        out.classes = None if small.loops() else small.same_closure_classes()
        return out


class Brsc(Workload):
    name = "brsc"
    # p85 falls among U(3,17) and the two 12-edge graphic matroids, which
    # take about the same time; p75 and p90 fall between cost levels
    tail_pct = 85

    def __init__(self, seed, root, small):
        super().__init__(seed, root, small)
        rng = self.rng
        uniform = range(5, 7) if small else range(14, 19)
        # two seeded graphs and two seeded complexes of each larger size, so
        # that the median and tail operations do not hinge on one random draw;
        # with the three small complexes the median falls among inputs of
        # about the same cost
        graph_vertices, graph_edges = (4, (4, 5)) if small else (6, (10, 11, 12, 13) * 2)
        randoms = (6, 7) if small else (9, 10, 11) + tuple(range(12, 19)) * 2
        self.inputs = []
        for n in uniform:
            self.inputs.append((f"U3_{n}", _Expect(
                n, gen.uniform_facets(3, n), ref.uniform_flat_count(3, n),
                lambda x, n=n: ref.uniform_closure(3, n, x),
            )))
        for m in graph_edges:
            edges = gen.random_graph_edges(rng, graph_vertices, m)
            self.inputs.append((f"graphic{m}", _Expect(
                m, gen.graph_forest_facets(graph_vertices, edges),
                ref.graphic_flat_count(graph_vertices, edges),
                lambda x, e=edges: ref.graphic_closure(graph_vertices, e, x),
            )))
        for n in randoms:
            facets = gen.random_triple_facets(rng, n, keep=0.97)
            self.inputs.append((f"random{n}", _Expect.by_definition(n, facets)))
        for fixture in ("glued_triangles", "nonbr", "trivial"):
            vertices, facets = gen.read_complex_fixture(
                root / "tests" / "fixtures" / f"{fixture}.cx"
            )
            self.inputs.append((fixture, _Expect.by_definition(len(vertices), facets)))
        self.queries = [
            [ref.mask(rng.sample(range(e.n), rng.randint(1, min(4, e.n)))) for _ in range(6)]
            for _, e in self.inputs
        ]

    def run_pass(self, rec):
        for (name, expect), queries in zip(self.inputs, self.queries):
            labels = _labels(self.labels.tag(), expect.n)
            faces = [[labels[i] for i in f] for f in expect.facets]
            with rec.op(name, None) as op:
                cx = rec.call("complexes.build", SimplicialComplex, labels, faces)
                op.record.key = hash(cx)
                face_masks = rec.call("complexes.face_masks", getattr, cx, "face_masks")
                family = rec.call("flats.all_flats", all_flats, cx)
                lat = rec.call("flats.lattice", getattr, family, "lattice")
                violation = rec.call("flats.br_violation", br_violation, cx)
                closed = [
                    rec.call("flats.closure", closure, cx, [labels[i] for i in ref.bits(q)])
                    for q in queries
                ]
                exchange = rec.call("complexes.exchange", cx.exchange_violation)
                try:
                    simple = rec.call("flats.simplification", simplification, cx)
                except LoopsPresent:
                    simple = None
                op.stop()
                self._check(op, expect, queries, cx, face_masks, family, lat,
                            violation, closed, exchange, simple)
                rec.count("complexes.faces", len(face_masks))
                rec.count("flats.found", len(family))
                rec.count("flats.subsets_scanned", 2 ** expect.n)

    @staticmethod
    def _check(op, expect, queries, cx, face_masks, family, lat, violation, closed,
               exchange, simple):
        index = {v: i for i, v in enumerate(cx.vertices)}

        def to_mask(labels):
            return ref.mask(index[v] for v in labels)

        op.check(len(face_masks) == expect.faces, "complexes", "face count")
        op.check(len(family) == expect.flat_count, "flats", "flat count")
        if expect.flats is not None:
            op.check({to_mask(f) for f in family.flats} == expect.flats, "flats", "flat sets")
        op.check(len(lat) == len(family), "flats", "flat lattice size")
        got = None if violation is None else to_mask(violation)
        op.check(got == expect.br, "flats", "br violation")
        op.check(
            [to_mask(c) for c in closed] == [expect.closure_of(q) for q in queries],
            "flats",
            "closure",
        )
        got = None if exchange is None else tuple(to_mask(s) for s in exchange)
        op.check(got == expect.exchange, "complexes", "exchange violation")
        classes = None if simple is None else sorted(to_mask(c) for c in simple[1])
        want = None if expect.classes is None else sorted(expect.classes)
        op.check(classes == want, "flats", "simplification classes")


# -- cli -----------------------------------------------------------------------

DEADLINE_S = 3.0


def run_child(argv, stdin_text, env, cwd, deadline):
    """Run one child to completion or to its deadline.

    Returns (exit code or None if killed, stdout, stderr, wall seconds, peak
    RSS in KiB).  The child is reaped with wait4 so its own resource usage
    is known.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, cwd=cwd,
    )
    try:
        proc.stdin.write(stdin_text.encode())
        proc.stdin.close()
    except BrokenPipeError:
        pass
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    killed = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - (perf_counter() - start)
                if left <= 0 and not killed:
                    proc.kill()
                    killed = True
                ready = sel.select(None if killed else left)
                for key, _ in ready:
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        # interrupted (for example by SIGTERM): leave no child behind
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[proc.stdout.fileno()]).decode()
    err = b"".join(chunks[proc.stderr.fileno()]).decode()
    proc.stdout.close()
    proc.stderr.close()
    code = None if killed else proc.returncode
    return code, out, err, wall, usage.ru_maxrss


def child_env(src):
    env = {k: v for k, v in os.environ.items() if k != "FLATLAT_LIMIT_OVERRIDE"}
    env["PYTHONPATH"] = str(src)
    return env


def _json_ok(check):
    """Wrap a check on parsed JSON output so malformed output just fails it."""

    def run(out):
        try:
            return bool(check(json.loads(out)))
        except (ValueError, KeyError, TypeError, IndexError):
            return False

    return run


class Cli(Workload):
    name = "cli"
    tail_pct = 90

    FIXTURE_COMMANDS = (
        [[cmd, f"tests/fixtures/{lat}.lat", *extra]
         for lat in ("boolean2", "chain3", "nonrealizable6")
         for cmd, *extra in (
             ["classify"], ["realizable", "--oracle"],
             ["realizable", "--force-general", "--format", "json"],
             ["construct", "--verify"], ["tl", "--oracle"],
             ["matrix", "--format", "json"], ["superclique"], ["hasse"],
         )]
        + [[cmd, f"tests/fixtures/{cx}.cx", *extra]
           for cx, first in (("glued_triangles", "1"), ("nonbr", "1"), ("trivial", "a"))
           for cmd, *extra in (
               ["flats"], ["flats", "--dot"], ["closure", "--set", first],
               ["brsc", "--verbose", "--oracle"], ["brsc", "--format", "json"],
           )]
        + [["superclique", "tests/fixtures/path4.gr"],
           ["superclique", "tests/fixtures/path4.gr", "--naive", "--format", "json"],
           ["superclique", "tests/fixtures/path4.gr", "--oracle"],
           ["classify", "tests/fixtures/path4.gr"]]
    )

    def __init__(self, seed, root, small):
        super().__init__(seed, root, small)
        self.env = child_env(root / "src")
        expected = json.loads((root / "bench" / "cli_expected.json").read_text())
        commands = self.FIXTURE_COMMANDS[::6] if small else self.FIXTURE_COMMANDS
        self.fixtures = [(argv, expected[" ".join(argv)]) for argv in commands]
        rng = self.rng
        graph_sizes = (6,) if small else (12, 16)
        self.graphs = []
        for n in graph_sizes:
            edges = sorted(
                p for p in itertools.combinations(range(n), 2) if rng.random() < 0.3
            )
            self.graphs.append((n, edges, ref.supercliques(n, edges)))
        vertices, m = (4, 5) if small else (5, 8)
        edges = gen.random_graph_edges(rng, vertices, m)
        self.graphic = (m, gen.graph_forest_facets(vertices, edges))
        self.graphic_faces = len(ref.SmallComplex(*self.graphic).faces)
        self.booleans = (3,) if small else (5, 6)
        self.chain_k = 4 if small else 7
        self.peak_kib = 0

    # -- helpers ----------------------------------------------------------

    def _child(self, argv, doc):
        full = [sys.executable, "-m", "flatlat.cli", *argv]
        return run_child(full, doc or "", self.env, self.root, DEADLINE_S)

    @staticmethod
    def _wrong(code, out, err, expect_code, check_out):
        """Why a finished command is wrong, or None if it is right."""
        if code is None:
            return f"missed the {DEADLINE_S:g} s deadline"
        if code not in expect_code:
            return f"exit {code}: {err.strip()[-200:]}"
        return None if check_out(out) else "output"

    def _spawn(self, rec, name, argv, doc, expect_code, check_out, key):
        """One CLI command as one operation, with an in-process mirror of it
        in traced passes (for the per-layer figures)."""
        with rec.op(name, key) as op:
            code, out, err, wall, rss = rec.call("cli.spawn", self._child, argv, doc)
            op.stop(wall)
            rec.count(f"cli.exit.{'killed' if code is None else code}")
            if code is not None:
                self.peak_kib = max(self.peak_kib, rss)
            wrong = self._wrong(code, out, err, expect_code, check_out)
            if wrong:
                op.fail("cli", wrong)
            if doc is not None and rec.tracing:
                self._mirror(rec, op, argv, doc, code, wall)

    def _mirror(self, rec, op, argv, doc, code, wall):
        rec.count("formats.parse_bytes", len(doc.encode()))
        parsed = rec.call("formats.parse", parse, doc)
        if parsed.kind == "graph":
            fast = rec.call("graphs.find_supercliques", find_supercliques, parsed.value)
            slow = rec.call("graphs.bruteforce", supercliques_bruteforce, parsed.value)
            op.check(fast == slow, "graphs", "growth != bruteforce")
            rec.count("graphs.supercliques", len(fast))
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(doc)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                got = rec.call("cli.main", flatlat_cli.main, argv)
        finally:
            sys.stdin = saved
        rec.count("cli.spawn_wall", wall)
        op.check(got == code, "cli", f"in-process exit {got} != {code}")

    def _lattice_doc(self, rec, family):
        labels, lat = _lattice(rec, self.labels.tag(), family)
        return labels, lat, rec.call("formats.emit", format_lattice, lat)

    def _complex_doc(self, rec, labels, facets):
        cx = rec.call("complexes.build", SimplicialComplex, labels,
                      [[labels[i] for i in f] for f in facets])
        return cx, rec.call("formats.emit", format_complex, cx)

    # -- workload ---------------------------------------------------------

    def known_defects(self):
        # construct has no soft limit, so on the 16-element boolean lattice
        # it runs into the deadline instead of exiting 3 (or finishing)
        family = gen.boolean_family(4)
        labels = _labels(self.labels.tag(), len(family))
        doc = format_lattice(FiniteLattice(labels, gen.family_order(family)))
        boolean16 = self._wrong(*self._child(["construct", "-"], doc)[:3], {0, 3},
                                lambda out: True)
        # a valid complex whose vertex "x,y" collides with the flat label of
        # {x, y}; its flats are {}, {x,y}, {"x,y"} and the ground set
        tag = self.labels.tag()
        labels = [f"{tag}x", f"{tag}y", f"{tag}x,{tag}y"]
        doc = format_complex(SimplicialComplex(labels, [labels[::2], labels[1:]]))
        collision = self._wrong(*self._child(["flats", "-", "--format", "json"], doc)[:3],
                                {0}, _json_ok(lambda out: out["count"] == 4))
        return {"construct-boolean16": boolean16, "flats-label-collision": collision}

    def run_pass(self, rec):
        for argv, want in self.fixtures:
            self._spawn(rec, argv[0], argv, None, {want["exit"]},
                        lambda out, w=want["stdout"]: out == w, None)
        for atoms in self.booleans:
            self._classify_boolean(rec, atoms)
        for n, edges, cliques in self.graphs:
            self._superclique(rec, n, edges, cliques)
        self._brsc_graphic(rec)
        self._construct_chain(rec)
        self._realizable(rec)
        self._tl(rec)
        self._matrix(rec)

    def _classify_boolean(self, rec, atoms):
        family = gen.boolean_family(atoms)
        labels, lat, doc = self._lattice_doc(rec, family)
        singletons = [labels[i] for i, s in enumerate(family) if len(s) == 1]

        def ok(out):
            return (
                out["height"] == atoms and out["atoms"] == singletons
                and out["elements"] == labels and out["semimodular_witness"] is None
                and out["atomistic"] and out["semimodular"]
                and out["geometric"] and out["boolean"]
            )

        self._spawn(rec, f"classify-boolean{2 ** atoms}",
                    ["classify", "-", "--format", "json"], doc, {0}, _json_ok(ok), hash(lat))

    def _superclique(self, rec, n, edges, cliques):
        labels = _labels(self.labels.tag(), n)
        graph = rec.call("graphs.build", SimpleGraph, labels,
                         [(labels[a], labels[b]) for a, b in edges])
        doc = rec.call("formats.emit", format_graph, graph)
        want = [[labels[i] for i in ref.bits(w)] for w in cliques]
        self._spawn(rec, f"superclique-graph{n}",
                    ["superclique", "-", "--oracle", "--format", "json"], doc,
                    {0 if want else 1}, _json_ok(lambda out: out["supercliques"] == want),
                    hash(graph))

    def _brsc_graphic(self, rec):
        faces = self.graphic_faces
        m, facets = self.graphic
        cx, doc = self._complex_doc(rec, _labels(self.labels.tag(), m), facets)

        def ok(out):
            return (
                out["boolean_representable"] and out["violation"] is None
                and len(out["faces"]) == faces
                and all(f["transversal"] for f in out["faces"])
            )

        self._spawn(rec, "brsc-graphic", ["brsc", "-", "--verbose", "--oracle", "--format", "json"],
                    doc, {0}, _json_ok(ok), hash(cx))

    def _construct_chain(self, rec):
        family = gen.chain_family(self.chain_k)
        labels, lat, doc = self._lattice_doc(rec, family)
        below = _below_counts(family)

        def ok(out):
            flats = out["predicted_flats"]
            return (
                out["verified"] is True
                and len(out["vertices"]) == 3 * (self.chain_k - 1)
                and [len(flats[lab]) for lab in labels] == [3 * b for b in below]
            )

        self._spawn(rec, f"construct-chain{self.chain_k}",
                    ["construct", "-", "--verify", "--format", "json"], doc, {0},
                    _json_ok(ok), hash(lat))

    def _realizable(self, rec):
        # expected answers from theory: partition lattices are geometric,
        # height <= 2 atomistic and boolean lattices are realizable, chains
        # are not atomistic, nonrealizable6 is the frozen counterexample
        cases = (
            ("partition4", gen.partition_family(4), True, "height-3"),
            ("nonrealizable6", gen.nonrealizable6_family(), False, "height-3"),
            ("m4", gen.m_family(4), True, "height-le-2"),
            ("boolean16", gen.boolean_family(4), True, "boolean"),
            ("chain4", gen.chain_family(4), False, "atomistic"),
        )
        if self.small:
            cases = cases[1:2]
        for name, family, realizable, method in cases:
            _, lat, doc = self._lattice_doc(rec, family)
            self._spawn(
                rec, f"realizable-{name}",
                ["realizable", "-", "--oracle", "--format", "json"], doc,
                {0 if realizable else 1},
                _json_ok(lambda out, r=realizable, m=method:
                         out["realizable"] is r and out["method"] == m),
                hash(lat),
            )

    def _tl(self, rec):
        # canonical complexes: M4 has every pair of atoms as a facet, the
        # boolean lattice one facet of all atoms
        for name, family, facets in (
            ("m4", gen.m_family(4), [2] * 6),
            ("boolean8", gen.boolean_family(3), [3]),
        ):
            _, lat, doc = self._lattice_doc(rec, family)
            self._spawn(
                rec, f"tl-{name}", ["tl", "-", "--oracle", "--format", "json"], doc, {0},
                _json_ok(lambda out, f=facets: sorted(len(x) for x in out["facets"]) == f),
                hash(lat),
            )

    def _matrix(self, rec):
        family = gen.boolean_family(3)
        labels, lat, doc = self._lattice_doc(rec, family)
        atoms = [a for a in family if len(a) == 1]
        rows = [[0 if a <= x else 1 for a in atoms] for x in family]
        self._spawn(rec, "matrix-boolean8", ["matrix", "-", "--format", "json"], doc, {0},
                    _json_ok(lambda out: out["rows"] == rows and out["elements"] == labels),
                    hash(lat))

    def peak_rss_kib(self, own):
        # the commands run in children: report the largest one that finished
        return self.peak_kib


WORKLOADS = {w.name: w for w in (Construct, Census, Brsc, Cli)}
