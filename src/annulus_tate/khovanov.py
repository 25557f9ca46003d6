"""Khovanov chain complexes of annular diagrams over F2, with AKh read off them.

Every edge map is the Khovanov merge or split (labels on the participating
circles):

  merge:  x+x+ -> x+,  x+x- -> x-,  x-x+ -> x-,  x-x- -> 0
  split:  x+ -> x+x- + x-x+,  x- -> x-x-

Kh arrows raise i by 1, preserve j and shift k by 0 or -2.  AKh is the
associated graded of Kh under the annular k-filtration (Asaeda-Przytycki-
Sikora, "Categorification of the Kauffman bracket skein module of
I-bundles over surfaces", AGT 2004; Roberts, "On knot Floer homology in
double branched covers", G&T 2013), so it is not built: ``rows_of`` reads
its arrows off the full Kh complex as the ones that preserve k.

Kh ranks of a closure (``homology``) are computed from the reduced
complex, a build of its own: the generators whose marked circle, circle 0
(the one through port 0), is labeled "-" span a subcomplex with half the
generators, and over F2 its homology h gives Kh^{i,j} = h^{i,j} +
h^{i,j-2} (Kh = reduced Kh (x) V, Shumakovitch, "Torsion of the Khovanov
homology", Fund. Math. 2014; reduced Kh as the marked-"-" subcomplex,
Khovanov, "Patterns in knot cohomology I", Experiment. Math. 2003).  The
full complex serves AKh and the Tate side, where the deck rotation fixes
no basepoint.  A ``periodic`` run reads every table of a side off that
side's full complex (``tate.PeriodicRun``), so a run of both theories
makes two builds: the full quotient and the full cover.  It also
assembles each block of a side once for both theories: on a j block of
the Kh rows, cancelling the arrows that keep k first gives AKh, and
cancelling the rest then gives Kh (``homologies_of``).

The complex is built in one pass per cube vertex and one per cube edge.
Each vertex is traced once (``cube.resolve``, on one ``cube.PortLinks``
table per build), and its gradings are built per vertex by doubling
(``cube.vertex_gradings``).  Each edge is classified once, from the
crossing it flips (``cube.classify_resolutions``, with one EdgeType per
distinct edge for the build).  Each edge map is a table from the labels
of its participating circles to their images, applied at once to every
labeling of the other circles; the table and that transport
(``labeling_images``) are tabulated once per distinct edge type.  d^2 = 0
is checked on every built complex.  ``_map_blocks`` is the one reader of
a complex's blocks: it splits the complex into engine complexes along the
gradings every arrow of a theory preserves, filtered by i and graded by
(j, k).  A block numbers its generators level by level, so that each
offset-relative engine row spans one or two levels of i rather than the
whole block, and ``FilteredComplex.from_rows`` assembles it in one pass
over its members' arrows.  The blocks share nothing, so
``_fork_map`` shares them out over every CPU: it forks one child per extra
CPU, and each process assembles its blocks one at a time from its
(copy-on-write) image of the complex, hands each to the caller's function,
which may cancel it in place, and drops it before the next is built, so
the largest block, not the sum of all blocks, sets a process's memory
peak.  The children pipe their results back.  The d^2 check splits its
generator range the same way.  Complexes below ``FORK_MIN_GENERATORS``
stay in one process.  A diagram whose complex would have more than
``links.MAX_GENERATORS`` generators is refused with ``DiagramTooLarge``
while its cube is resolved, before any arrow is built.
"""

from __future__ import annotations

import enum
import os
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import NoReturn

from . import cube
from .f2algebra import FilteredComplex, FilteredComplexError, homology_ranks
from .links import MAX_GENERATORS, AnnularDiagram, DiagramTooLarge


class Theory(enum.Enum):
    AKH = "akh"
    KH = "kh"


@dataclass
class GradedComplex:
    """The Khovanov cube-of-chains complex of a diagram, full or reduced.

    Generators are indexed consecutively: all labelings of vertex 0, then
    of vertex 1, and so on, with label bitmasks ascending.  ``out[g]``
    lists the Kh arrow targets in construction order; ``rows_of`` reads
    the AKh ones.  A ``reduced`` complex keeps only the labelings with
    circle 0 "-", the one at index ``offsets[vertex] + (labels >> 1)``,
    and serves Kh only.
    """

    # Only perfbench/tracer.py reads this, to key its build counts; it goes
    # with ROADMAP item 8.
    theory = Theory.KH

    diagram: AnnularDiagram
    resolutions: list[cube.Resolution]
    offsets: list[int]
    n_generators: int
    vertex_of: list[int]
    gi: list[int]
    gj: list[int]
    gk: list[int]
    out: list[list[int]] = field(repr=False)
    reduced: bool = False

    def index(self, vertex: int, labels: int) -> int:
        return self.offsets[vertex] + (labels >> self.reduced)

    def n_arrows(self) -> int:
        return sum(len(row) for row in self.out)

    def i_span(self) -> int:
        return max(self.gi) - min(self.gi) if self.gi else 0

    def check_d_squared(self) -> None:
        """Raise unless d^2 = 0: sorted, the targets of each generator's
        targets must pair off as equal neighbours, so that every length-2
        path has a partner with the same ends.

        The generators are checked in one range per engine process
        (``_fork_map``); the message names the lowest failing generator.
        """
        out = self.out

        def first_failure(gens: range) -> str | None:
            for x in gens:
                paths: list[int] = []
                for y in out[x]:
                    paths += out[y]
                paths.sort()
                if paths[::2] != paths[1::2]:
                    odd = sorted(z for z, n in Counter(paths).items() if n % 2)
                    return f"d^2 != 0 at generator {x}: it reaches {odd[:5]} an odd number of times"
            return None

        n, parts = self.n_generators, _engine_processes()
        ranges = [range(n * p // parts, n * (p + 1) // parts) for p in range(parts)]
        # a generator's check costs a fifth of its block work (1.5-1.9 us),
        # so the check forks from about 10,000 generators on
        weights = [len(r) // 5 for r in ranges]
        for failure in _fork_map(first_failure, ranges, weights):
            if failure:
                raise FilteredComplexError(failure)


def _edge_rule(edge: cube.EdgeType) -> dict[int, list[int]]:
    """The Khovanov merge or split, by the labels of the participating circles.

    Maps each "+"-mask of the source participating circles to the "+"-masks
    of the target participating circles it is sent to (a mask with no entry
    is sent to zero); the other circles keep their labels.
    """
    if edge.kind == "merge":
        b1, b2 = (1 << c for c in edge.source_circles)
        d0 = 1 << edge.target_circles[0]
        return {b1 | b2: [d0], b1: [0], b2: [0]}
    b0 = 1 << edge.source_circles[0]
    d1, d2 = (1 << c for c in edge.target_circles)
    return {b0: [d1, d2], 0: [0]}


def labeling_images(masks: list[int]) -> list[int]:
    """The image of every labeling when each "+" circle c is sent to the
    "+" circles ``masks[c]``: entry ``labels`` is the union of ``masks[c]``
    over the set bits c of ``labels``, built one circle at a time by
    doubling."""
    image = [0]
    for mask in masks:
        image += [lab | mask for lab in image]
    return image


def _transport_table(edge: cube.EdgeType, reduced: bool) -> tuple[list[int], list[int]]:
    """Source labelings with every participating circle "-", ascending,
    and their target labelings.

    ``reduced`` keeps circle 0 "-" and returns labelings shifted right by
    one, the reduced index offsets.
    """
    bits, tbits = [], []
    for si, ti in edge.correspondence:
        if reduced:
            if si == 0:
                continue
            if ti == 0:
                raise FilteredComplexError(
                    f"arrow leaves the reduced complex: circle {si} is carried onto circle 0"
                )
        bits.append(1 << si >> reduced)
        tbits.append(1 << ti >> reduced)
    return labeling_images(bits), labeling_images(tbits)


def _cube_edges(c: int):
    """The edges alpha -> alpha | 1 << b of a c-cube with the crossing b
    each flips, alpha ascending, then b."""
    return (
        (alpha, alpha | 1 << b, b) for alpha in range(1 << c) for b in range(c)
        if not (alpha >> b) & 1
    )


def build_complex(diagram: AnnularDiagram, reduced: bool = False) -> GradedComplex:
    """Build the Khovanov cube-of-chains complex and verify d^2 = 0.

    ``reduced`` builds the Kh subcomplex where circle 0 is "-", raising
    FilteredComplexError if an arrow leaves it.  Raises DiagramTooLarge
    before building any arrow, at the first cube vertex that brings the
    generators so far past MAX_GENERATORS, before that vertex's labelings
    are expanded or the next vertex is resolved.
    """
    c = diagram.n_crossings
    n_pos, n_neg = diagram.n_pos, diagram.n_neg

    links = cube.PortLinks(diagram)
    resolved, offsets, vertex_of, gi, gj, gk = [], [], [], [], [], []
    # resolved one vertex at a time, so an oversize cube is refused early
    for alpha in range(1 << c):
        res = cube.resolve(diagram, alpha, links)
        size = 1 << res.n_circles >> reduced
        if len(gi) + size > MAX_GENERATORS:
            raise DiagramTooLarge(
                f"the {c}-crossing diagram has more than the {MAX_GENERATORS:,}-"
                f"generator limit: {alpha + 1:,} of its {1 << c:,} cube vertices "
                f"already have {len(gi) + size:,}"
            )
        resolved.append(res)
        offsets.append(len(gi))
        i, js, ks = cube.vertex_gradings(res, n_pos, n_neg)
        if reduced:
            js, ks = js[::2], ks[::2]
        vertex_of += [alpha] * size
        gi += [i] * size
        gj += js
        gk += ks
    total = len(gi)

    out: list[list[int]] = [[] for _ in range(total)]
    ids = list(range(total))  # one int object per target, shared by its arrows
    # per distinct edge: rule, transport; a 10-crossing cube has 5,120
    # edges but about a hundred distinct ones
    types: dict[tuple, cube.EdgeType] = {}
    maps: dict[cube.EdgeType, tuple] = {}
    ports = links.crossing_ports
    for alpha, alpha2, b in _cube_edges(c):
        edge = cube.classify_resolutions(resolved[alpha], resolved[alpha2], ports[b], types)
        if edge not in maps:
            maps[edge] = (_edge_rule(edge), *_transport_table(edge, reduced))
        rule, rest, image = maps[edge]
        src_off, tgt_off = offsets[alpha], offsets[alpha2]
        for plus, tplus in rule.items():
            if not tplus or (reduced and plus & 1):
                continue
            rows = [out[src_off + (lab | plus >> reduced)] for lab in rest]
            for tp in tplus:
                if reduced and tp & 1:
                    raise FilteredComplexError(
                        f"arrow leaves the reduced complex: edge {alpha} -> {alpha2} "
                        "labels circle 0 \"+\""
                    )
                base = tgt_off + (tp >> reduced)
                for row, t in zip(rows, image):
                    row.append(ids[base + t])

    gc = GradedComplex(
        diagram=diagram,
        resolutions=resolved,
        offsets=offsets,
        n_generators=total,
        vertex_of=vertex_of,
        gi=gi,
        gj=gj,
        gk=gk,
        out=out,
        reduced=reduced,
    )
    gc.check_d_squared()
    return gc


def _block_keys(theory: Theory, gj: list[int], gk: list[int]) -> list[tuple]:
    """The gradings every arrow of ``theory`` preserves: (j, k) for AKh,
    (j,) for Kh.  Equal keys are one shared tuple."""
    keys = zip(gj, gk) if theory is Theory.AKH else zip(gj)
    shared: dict[tuple, tuple] = {}
    return [shared.setdefault(key, key) for key in keys]


def rows_of(gc: GradedComplex, theory: Theory):
    """``row(g)``, the arrow targets of generator g in ``theory``, in
    construction order: ``gc.out[g]`` for Kh; for AKh, those that preserve
    k, read from the full complex only."""
    if theory is Theory.KH:
        return gc.out.__getitem__
    if gc.reduced:
        raise ValueError("AKh is read from the full complex, not the reduced one")
    out, gk = gc.out, gc.gk
    return lambda g: [t for t in out[g] if gk[t] == gk[g]]


def _map_blocks(gc: GradedComplex, theory: Theory, fn) -> list:
    """``fn(C, members)`` for every block of ``gc`` along the block keys of
    ``theory``, in block order, with the blocks shared out over the CPUs by
    ``_fork_map``.

    C is the block's engine complex: each generator g is filtered by i and
    carries (j, k) as auxiliary grading, so that its rank tables are keyed
    (i, j, k) in either theory; its arrow targets are its ``theory``
    arrows (``rows_of``).  members[x] is the generator of ``gc`` at engine
    index x.  Members are numbered level by level: by i, then in
    generator order.  A cube arrow raises i by one, so each engine row
    spans at most two adjacent levels.

    The blocks are laid end to end in one numbering, ``slot``, so that
    ``FilteredComplex.from_rows`` reads each member's ``gc.out`` row once:
    it drops an AKh row's arrows that change k, maps each target to its
    engine index, slot - the block's first slot, and refuses one that
    falls outside the block (FilteredComplexError, "arrow leaves its
    grading block").  Each process assembles its blocks one at a time, and
    ``fn`` may cancel C in place: C is dropped when ``fn`` returns.
    """
    if theory is Theory.AKH and gc.reduced:
        raise ValueError("AKh is read from the full complex, not the reduced one")
    aux = _block_keys(Theory.AKH, gc.gj, gc.gk)
    keys = aux if theory is Theory.AKH else _block_keys(theory, gc.gj, gc.gk)
    ids: dict[tuple, int] = {}
    block_of = [ids.setdefault(key, len(ids)) for key in keys]
    groups: list[list[int]] = [[] for _ in ids]
    for g, b in enumerate(block_of):
        groups[b].append(g)
    gi, gk, out = gc.gi, gc.gk, gc.out
    slot = [0] * gc.n_generators
    starts = []
    first = 0
    for members in groups:
        members.sort(key=gi.__getitem__)  # stable: level by level
        starts.append(first)
        for x, g in enumerate(members, first):
            slot[g] = x
        first += len(members)

    def run_block(b: int):
        members = groups[b]
        C = FilteredComplex.from_rows(
            [gi[g] for g in members],
            [aux[g] for g in members],
            (out[g] for g in members),
            index=(slot, starts[b]),
            keep=(gk, gk[members[0]]) if theory is Theory.AKH else None,
        )
        return fn(C, members)

    return _fork_map(run_block, range(len(groups)), [len(members) for members in groups])


# ---------------------------------------------------------------------------
# blocks on every CPU

# Complexes with fewer generators stay in one process.  On a 2-vCPU host a
# fork round trip (fork, copy-on-write faults, pickled results, reaping)
# took 2.5-2.75 ms (median) from a 22-30 MB parent, and block assembly and
# cancellation 6-11 us per generator, more in larger complexes.  A second
# process takes at most half the work off the parent, and less when the
# blocks are uneven, so forking pays from about 1,000-2,000 generators on.
# Re-measured on a 2-vCPU virtual machine (Python 3.11.7), minimum and
# median of 60 runs, inline against two processes: on the 6,564-generator
# cover of "1 1 1 1"/2, the AKh homology_of took 31.7/56.0 ms against
# 30.3/35.3 ms, and hv_pages of both theories 41.4/76.6 ms against
# 32.4/44.1 ms; on the 59,052-generator cover of "1 1 1 1 1"/2 (12 runs),
# 445/686 ms against 310/440 ms and 658/1005 ms against 363/553 ms.  Near
# the crossover the minima are within that host's noise: one CPU-bound
# loop took 1.9-3.1 s from run to run, and two at once 2.3-3.3 s each.
# The four-letter quotients and the three-letter covers stay inline;
# four-letter covers and 10-crossing closures fork.
FORK_MIN_GENERATORS = 2_000

_max_processes: int | None = None


def cpu_count() -> int:
    """The CPUs this process may run on: its affinity set, or every CPU
    where the platform keeps no affinity set."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def limit_processes(n: int | None) -> int | None:
    """Run each complex on at most ``n`` processes from now on (None: one
    per CPU); returns the previous limit.  A worker pool's initializer
    passes 1, because its workers already share the CPUs."""
    global _max_processes
    previous, _max_processes = _max_processes, n
    return previous


def _engine_processes() -> int:
    cpus = cpu_count()
    return cpus if _max_processes is None else min(cpus, _max_processes)


def _fork_map(fn, items, sizes: list[int]) -> list:
    """``[fn(item) for item in items]``, the items shared out over one
    process per CPU (``_engine_processes``).

    ``sizes`` weighs each item's work in generators of block work.  Items
    go to processes largest first, each to the process with the least
    size so far.  The parent forks one child per process but the first.
    A child runs its items on its copy-on-write image of the parent, pipes
    back their pickled results or the exception that stopped it, and
    leaves with ``os._exit``.  The parent runs the first share, then reads
    and reaps every child.  A child's exception is raised again in the
    parent, and a child that ends without a result raises a RuntimeError
    that names its items.  On any exception in the parent,
    KeyboardInterrupt included, every child still running is killed and
    reaped.

    Runs inline on one CPU, when the sizes add up to less than
    ``FORK_MIN_GENERATORS``, where ``os.fork`` does not exist, and in a
    process with other threads, where a fork is unsafe.
    """
    items = list(items)
    n_proc = min(_engine_processes(), len(items))
    if (
        n_proc < 2
        or sum(sizes) < FORK_MIN_GENERATORS
        or not hasattr(os, "fork")
        or threading.active_count() > 1
    ):
        return [fn(item) for item in items]

    import pickle  # only a forking run needs these
    import signal

    shares: list[list[int]] = [[] for _ in range(n_proc)]
    loads = [0] * n_proc
    for idx in sorted(range(len(items)), key=lambda i: -sizes[i]):
        p = loads.index(min(loads))
        shares[p].append(idx)
        loads[p] += sizes[idx]
    for share in shares:
        share.sort()

    results: list = [None] * len(items)
    pids: list[int] = []  # forked and not yet reaped
    pipes = []
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            with open(w, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    _run_share(fn, items, share, sink)
                pids.append(pid)
        for idx in shares[0]:
            results[idx] = fn(items[idx])
        for pid, pipe, share in zip(list(pids), pipes, shares[1:]):
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            pids.remove(pid)
            code = os.waitstatus_to_exitcode(status)
            if code or not data:
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(
                    f"engine process {pid} for blocks {share} ended with {how} "
                    "and no result"
                )
            ok, payload = pickle.loads(data)
            if not ok:
                raise payload
            for idx, result in zip(share, payload):
                results[idx] = result
    except BaseException:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # reaped just before the exception
        raise
    finally:
        for pipe in pipes:
            pipe.close()
    return results


def _run_share(fn, items: list, share: list[int], sink) -> NoReturn:
    """In a forked child: write ``(True, [fn(items[i]) for i in share])``,
    or ``(False, exception)``, pickled to ``sink``, then leave with
    ``os._exit`` and never return into the parent's frames."""
    import pickle

    try:
        try:
            data = pickle.dumps((True, [fn(items[idx]) for idx in share]))
        except BaseException as exc:  # sent to the parent, which raises it
            try:
                data = pickle.dumps((False, exc))
            except Exception:
                data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        sink.write(data)
        sink.flush()
    finally:
        os._exit(0)


def _drop_k(i: int, j: int, k: int) -> tuple:
    return i, j


def _block_homology(C: FilteredComplex, theories) -> dict[Theory, dict[tuple, int]]:
    """The homology ranks of each of ``theories`` on the block C, which is
    cancelled in place: a j block of the Kh rows when Kh is among them, a
    (j, k) block of the AKh rows otherwise (``_map_blocks``).

    On a Kh block, AKh is read first, by cancelling the arrows that keep k
    (``homology_ranks(C, key)``): AKh is the associated graded of Kh under
    the k-filtration, and no arrow raises k, so these are exactly the
    AKh cancellations.  Cancelling the arrows left then gives Kh, keyed
    (i, j) once summed over k.
    """
    if Theory.KH not in theories:
        return {Theory.AKH: homology_ranks(C)}
    tables = {}
    if Theory.AKH in theories:
        tables[Theory.AKH] = homology_ranks(C, [k for _, k in C.aux])
    tables[Theory.KH] = summed(homology_ranks(C), _drop_k)
    return tables


def homologies_of(gc: GradedComplex, theories) -> dict[Theory, dict[tuple, int]]:
    """Graded homology ranks of each of ``theories`` from one assembly of
    each block (``_block_homology``): keys (i, j, k) for AKh, (i, j) for
    Kh.

    A reduced complex, with homology h, gives the Kh ranks
    h^{i,j} + h^{i,j-2}; it has no AKh.
    """
    if gc.reduced and Theory.AKH in theories:
        raise ValueError("AKh is read from the full complex, not the reduced one")
    blocks = Theory.KH if Theory.KH in theories else Theory.AKH
    tables: dict[Theory, dict[tuple, int]] = {theory: {} for theory in theories}
    for block in _map_blocks(gc, blocks, lambda C, _: _block_homology(C, theories)):
        for theory, ranks in block.items():
            tables[theory].update(ranks)
    if gc.reduced:
        h = tables[Theory.KH]
        tables[Theory.KH] = {
            (i, j): h.get((i, j), 0) + h.get((i, j - 2), 0)
            for i, j0 in h
            for j in (j0, j0 + 2)
        }
    return tables


def homology_of(gc: GradedComplex, theory: Theory) -> dict[tuple, int]:
    """Graded homology ranks of ``theory`` (``homologies_of``)."""
    return homologies_of(gc, (theory,))[theory]


def homology(diagram: AnnularDiagram, theory: Theory) -> dict[tuple, int]:
    """Rank table of AKh (keys (i, j, k)) or Kh (keys (i, j), from the
    reduced complex) over F2."""
    return homology_of(build_complex(diagram, reduced=theory is Theory.KH), theory)


def total_rank(table: dict[tuple, int]) -> int:
    return sum(table.values())


def summed(table: dict[tuple, int], key_of) -> dict:
    """The ranks of ``table`` added up over the keys that ``key_of(*key)``
    sends to the same key."""
    out: dict = {}
    for key, rank in table.items():
        new = key_of(*key)
        out[new] = out.get(new, 0) + rank
    return out
