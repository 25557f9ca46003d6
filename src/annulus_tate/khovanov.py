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
makes two builds: the full quotient and the full cover.  It also reads
each block of a side once for both theories: on a j block of the Kh
rows, the arrows that keep k give AKh, and all of them give Kh
(``homologies_of``).

The complex is built in one pass per cube vertex and one per cube edge.
Each vertex is traced once (``cube.resolve``, on one ``cube.PortLinks``
table per build), and its gradings are built per vertex by doubling
(``cube.vertex_gradings``).  Each edge is classified once, from the
crossing it flips (``cube.classify_resolutions``, with one EdgeType per
distinct edge for the build).  Each edge map is a table from the labels
of its participating circles to their images, applied at once to every
labeling of the other circles; the table and that transport
(``labeling_images``) are tabulated once per distinct edge type.  Every
arrow out of a vertex's generators comes from that vertex's edges, so its
rows are built in lists local to the vertex and kept as exact-size tuples
of the build's one int object per index; the gradings and vertices are
typed arrays.  So the complex holds no list and no int object of its own
per generator: on the 59,052-generator closure of
"1 -1 1 -1 1 1 -1 1 -1 1"/2 it holds 148.5 traced bytes per generator,
and the build and AKh table peak at 187.0 (229.5 and 323.7 with a list
per row, list gradings and fresh ints per block layout;
``scripts/bench_cube.py``, ``BENCH_memory.json``).  d^2 = 0 is checked
on every built complex.  ``_map_blocks`` is the one splitter
of a complex into blocks, along the gradings every arrow of a theory
preserves.  A block numbers its generators level by level, so that each
of its rows spans one or two levels of i rather than the whole block.
Every arrow raises i by exactly one, so over F2 each rank table is
dim C_i - rk d_i - rk d_{i-1}, level by level: ``f2algebra.homology_ranks``
reads it straight off the members' arrows, and no block is assembled
for a table.  The Tate pages read each block's page 1 off the same
arrows (``tate.page0_model``) and cancel only that.  The blocks share
nothing, so
``_fork_map`` shares them out over every CPU: it forks one child per extra
CPU, and each process runs its blocks one at a time on its (copy-on-write)
image of the complex and drops what it built for a block before the next
begins, so the largest block, not the sum of all blocks, sets a process's
memory peak.  The children pipe their results back.  The d^2 check splits its
generator range the same way.  Complexes below ``FORK_MIN_GENERATORS``
stay in one process.  A diagram whose complex would have more than
``links.MAX_GENERATORS`` generators is refused with ``DiagramTooLarge``
while its cube is resolved, before any arrow is built.
"""

from __future__ import annotations

import enum
import os
import threading
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import NoReturn

from . import cube
from .f2algebra import FilteredComplexError, homology_ranks
from .links import MAX_GENERATORS, AnnularDiagram, DiagramTooLarge


class Theory(enum.Enum):
    AKH = "akh"
    KH = "kh"


@dataclass
class GradedComplex:
    """The Khovanov cube-of-chains complex of a diagram, full or reduced.

    Generators are indexed consecutively: all labelings of vertex 0, then
    of vertex 1, and so on, with label bitmasks ascending.  ``out[g]`` is
    the tuple of Kh arrow targets in construction order; ``rows_of`` reads
    the AKh ones.  ``ids`` holds one int object per generator index, the
    one every row and every block layout (``_map_blocks``) shares, and
    the gradings and vertices are typed arrays, so no generator costs an
    int object or a list of its own: a 10-crossing closure holds 147-149
    traced bytes per generator (229-230 with a list per row and list
    gradings).  A ``reduced`` complex keeps only
    the labelings with circle 0 "-", the one at index
    ``offsets[vertex] + (labels >> 1)``, and serves Kh only.
    """

    # Only perfbench/tracer.py reads this, to key its build counts; it goes
    # with ROADMAP item 8.
    theory = Theory.KH

    diagram: AnnularDiagram
    resolutions: list[cube.Resolution]
    offsets: list[int]
    n_generators: int
    vertex_of: array
    gi: array
    gj: array
    gk: array
    out: list[tuple[int, ...]] = field(repr=False)
    ids: list[int] = field(repr=False)
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
        # a range weighs a fifth of its generators, so the check forks from
        # 10,000 generators on.  A generator's check costs 0.6-0.9 us, and
        # in 30 alternating runs (min/median ms, inline against two
        # processes, see FORK_MIN_GENERATORS) it took 4.0/4.4 against
        # 4.0/5.0 on 6,564 generators, 14.3/15.1 against 11.8/12.6 on
        # 19,686, and 52.3/58.6 against 41.2/44.5 on 59,052: the crossover
        # lies between the first two
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


def build_complex(diagram: AnnularDiagram, reduced: bool = False) -> GradedComplex:
    """Build the Khovanov cube-of-chains complex and verify d^2 = 0.

    ``reduced`` builds the Kh subcomplex where circle 0 is "-", raising
    FilteredComplexError if an arrow leaves it.  Raises DiagramTooLarge
    before building any arrow, at the first cube vertex that brings the
    generators so far past MAX_GENERATORS, before that vertex's labelings
    are expanded or the next vertex is resolved.

    Every arrow out of a vertex's generators comes from that vertex's
    edges, so each vertex's rows are built in lists of its own, edge by
    edge, and kept as tuples once its last edge is done.
    """
    c = diagram.n_crossings
    n_pos, n_neg = diagram.n_pos, diagram.n_neg

    links = cube.PortLinks(diagram)
    resolved, offsets = [], []
    vertex_of, gi, gj, gk = array("i"), array("h"), array("h"), array("h")
    total = 0
    # resolved one vertex at a time, so an oversize cube is refused early
    for alpha in range(1 << c):
        res = cube.resolve(diagram, alpha, links)
        size = 1 << res.n_circles >> reduced
        if total + size > MAX_GENERATORS:
            raise DiagramTooLarge(
                f"the {c}-crossing diagram has more than the {MAX_GENERATORS:,}-"
                f"generator limit: {alpha + 1:,} of its {1 << c:,} cube vertices "
                f"already have {total + size:,}"
            )
        resolved.append(res)
        offsets.append(total)
        i, js, ks = cube.vertex_gradings(res, n_pos, n_neg)
        if reduced:
            js, ks = js[::2], ks[::2]
        vertex_of.extend(repeat(alpha, size))
        gi.extend(repeat(i, size))
        gj.extend(js)
        gk.extend(ks)
        total += size

    out: list[tuple[int, ...]] = []
    # one int object per index, shared by the arrows into it and by every
    # block layout (``_map_blocks``)
    ids = list(range(total))
    # per distinct edge: rule, transport; a 10-crossing cube has 5,120
    # edges but about a hundred distinct ones
    types: dict[tuple, cube.EdgeType] = {}
    maps: dict[cube.EdgeType, tuple] = {}
    ports = links.crossing_ports
    for alpha, res in enumerate(resolved):
        vertex_rows: list[list[int]] = [[] for _ in range(1 << res.n_circles >> reduced)]
        for b in range(c):
            if (alpha >> b) & 1:
                continue
            alpha2 = alpha | 1 << b
            edge = cube.classify_resolutions(res, resolved[alpha2], ports[b], types)
            if edge not in maps:
                maps[edge] = (_edge_rule(edge), *_transport_table(edge, reduced))
            rule, rest, image = maps[edge]
            tgt_off = offsets[alpha2]
            for plus, tplus in rule.items():
                if not tplus or (reduced and plus & 1):
                    continue
                rows = [vertex_rows[lab | plus >> reduced] for lab in rest]
                for tp in tplus:
                    if reduced and tp & 1:
                        raise FilteredComplexError(
                            f"arrow leaves the reduced complex: edge {alpha} -> {alpha2} "
                            "labels circle 0 \"+\""
                        )
                    base = tgt_off + (tp >> reduced)
                    for row, t in zip(rows, image):
                        row.append(ids[base + t])
        out += map(tuple, vertex_rows)

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
        ids=ids,
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
    """``fn(members, index)`` for every block of ``gc`` along the block keys
    of ``theory``, in block order, with the blocks shared out over the CPUs
    by ``_fork_map``.

    members[x] is the generator of ``gc`` at block index x.  Members are
    numbered level by level: by i, then in generator order.  A cube arrow
    raises i by one, so each row of a block spans at most two adjacent
    levels.  The blocks are laid end to end in one numbering, ``slot``,
    and ``index`` is the pair (slot, the block's first slot), through
    which ``f2algebra.homology_ranks`` and ``tate.page0_model`` read the
    members' ``gc.out`` rows: they map each target to its block index,
    slot - the block's first slot.  The rank pass refuses one that falls
    outside the block (FilteredComplexError, "arrow leaves its grading
    block").  Each process runs its blocks one
    at a time, and whatever ``fn`` builds for a block is dropped when it
    returns.
    """
    if theory is Theory.AKH and gc.reduced:
        raise ValueError("AKh is read from the full complex, not the reduced one")
    numbers: dict[tuple, int] = {}
    block_of = [numbers.setdefault(key, len(numbers)) for key in _block_keys(theory, gc.gj, gc.gk)]
    groups: list[list[int]] = [[] for _ in numbers]
    ids = gc.ids  # the build's int objects: no block layout makes its own
    for g, b in zip(ids, block_of):
        groups[b].append(g)
    del block_of  # not needed while the blocks run
    gi = gc.gi
    slot = [0] * gc.n_generators
    starts = []
    first = 0
    for members in groups:
        members.sort(key=gi.__getitem__)  # stable: level by level
        starts.append(first)
        for x, g in zip(ids[first:first + len(members)], members):
            slot[g] = x
        first += len(members)

    def run_block(b: int):
        return fn(groups[b], (slot, starts[b]))

    return _fork_map(run_block, range(len(groups)), [len(members) for members in groups])


# ---------------------------------------------------------------------------
# blocks on every CPU

# Complexes with fewer generators stay in one process.  On a 2-vCPU host a
# fork round trip (fork, copy-on-write faults, pickled results, reaping)
# took 2.5-2.75 ms (median) from a 22-30 MB parent.  A second process takes
# at most half the work off the parent, and less when the blocks are
# uneven.  On a 2-vCPU virtual machine (Python 3.11.7), minimum/median ms
# in two rounds of alternating runs, inline against two processes,
# hv_pages of both theories (rank tables and ``tate.page0_model`` per
# block) took 19.0/20.2 and 20.6/34.7 against 24.9/25.8 and 15.8/24.1 on
# the 6,564-generator cover of "1 1 1 1"/2 (60 runs), and 225/235 and
# 244/366 against 146/197 and 161/229 on the 59,052-generator cover of
# "1 1 1 1 1"/2 (12 runs).  On the smaller cover the faster side changed
# from round to round, so its crossover lies near there.  The four-letter
# quotients and the three-letter covers stay inline; four-letter covers
# and 10-crossing closures fork.
# A block's rank pass (``homologies_of``) costs 1.1-2.1 us per generator.
# Measured on the same host, each complex in a process of its own, ranges
# over two to five rounds of 30 alternating runs, minimum/median ms
# inline against two processes: 6,564-generator closure of "1 1 1 1 1 1 1 1"/2, AKh:
# 8.2-9.6/8.9-10.3 against 7.7-13.4/8.9-14.1; 19,686 (nine letters), AKh:
# 31.0-35.1/33.0-37.0 against 23.8-44.0/25.2-46.4; 29,526 (reduced, ten
# letters), Kh: 41.4-49.8/48.1-54.8 against 30.9-61.5/35.5-66.9; 59,052,
# AKh: 107-125/115-134 against 71-84/82-153.  From 6,564 to 29,526
# generators the faster side changed from round to round, so these runs
# do not place the rank pass's crossover, and it forks from this same
# threshold.
# The same host's parallel throughput varies from run to run: two forked
# CPU-bound loops ran at 0.77-1.13x the loop rate of one in six runs of
# 3-7 rounds of ``scripts/bench_cube.py --parts parallel``, and at
# 1.0-2.34x in five others; pinned to a CPU each, at 1.35-2.5x.  In
# 20 alternating fresh ``akh`` runs on the 59,052-generator closure of
# "1 -1 1 -1 1 1 -1 1 -1 1"/2, one process took a median 286 ms (276-456)
# against 322 ms (306-389) on two.  The threshold stays: these figures
# come from one host.
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


def _block_homology(
    gc: GradedComplex, members: list[int], index: tuple[list[int], int], theories
) -> dict[Theory, dict[tuple, int]]:
    """The homology ranks of each of ``theories`` on one block of
    ``_map_blocks``: a j block of the Kh rows when Kh is among them, a
    (j, k) block of the AKh rows otherwise.  One rank pass
    (``homology_ranks``) reads them off the members' ``gc.out`` rows.

    On a Kh block, AKh is the associated graded of Kh under the
    k-filtration, so the pass that gives Kh, keyed (i, j), also gives AKh
    from the arrows that keep k, keyed (i, j, k).
    """
    gj, gk = gc.gj, gc.gk
    first = members[0]
    levels = [gc.gi[g] for g in members]
    rows = (gc.out[g] for g in members)
    if Theory.KH not in theories:
        akh = homology_ranks(
            levels, (gj[first], gk[first]), rows, index, keep=(gk, gk[first])
        )
        return {Theory.AKH: akh}
    if Theory.AKH not in theories:
        return {Theory.KH: homology_ranks(levels, (gj[first],), rows, index)}
    kh, akh = homology_ranks(levels, (gj[first],), rows, index, key=[gk[g] for g in members])
    return {Theory.AKH: akh, Theory.KH: kh}


def homologies_of(gc: GradedComplex, theories) -> dict[Theory, dict[tuple, int]]:
    """Graded homology ranks of each of ``theories`` from one rank pass
    over each block (``_block_homology``): keys (i, j, k) for AKh, (i, j)
    for Kh.  No block is assembled and no arrow is cancelled.

    A reduced complex, with homology h, gives the Kh ranks
    h^{i,j} + h^{i,j-2}; it has no AKh.
    """
    if gc.reduced and Theory.AKH in theories:
        raise ValueError("AKh is read from the full complex, not the reduced one")
    blocks = Theory.KH if Theory.KH in theories else Theory.AKH
    tables: dict[Theory, dict[tuple, int]] = {theory: {} for theory in theories}

    def block_tables(members, index):
        return _block_homology(gc, members, index, theories)

    for block in _map_blocks(gc, blocks, block_tables):
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
