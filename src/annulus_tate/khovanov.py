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

Kh ranks are computed from the reduced complex, a build of its own: the
generators whose marked circle, circle 0 (the one through port 0), is
labeled "-" span a subcomplex with half the generators, and over F2 its
homology h gives Kh^{i,j} = h^{i,j} + h^{i,j-2} (Kh = reduced Kh (x) V,
Shumakovitch, "Torsion of the Khovanov homology", Fund. Math. 2014;
reduced Kh as the marked-"-" subcomplex, Khovanov, "Patterns in knot
cohomology I", Experiment. Math. 2003).  The full complex serves AKh and
the Tate side, where the deck rotation fixes no basepoint.

The complex is built in one pass per cube edge.  Gradings are read per
vertex from popcounts (``cube.vertex_gradings``).  Each edge map is a
table from the labels of its participating circles to their images,
applied at once to every labeling of the other circles; the table and
that transport are tabulated once per distinct edge type.  d^2 = 0 is
checked on every built complex, and ``_blocks`` splits it into engine
complexes along the gradings every arrow of a theory preserves, filtered
by i, assembling each bitset row once.  A block numbers its generators
level by level, so that each offset-relative engine row spans one or two
levels of i rather than the whole block.  ``_blocks`` yields the blocks one
at a time, and every consumer cancels a block in place and drops it before
the next is built, so the largest block, not the sum of all blocks, sets
a process's memory peak.  The blocks share nothing, so ``_map_blocks``
runs them on every CPU: ``_fork_map`` forks one child per extra CPU, and
each child assembles and cancels its own blocks from its copy-on-write
image of the complex and pipes their results back.  The d^2 check splits
its generator range the same way.  Complexes below ``FORK_MIN_GENERATORS``
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
from typing import Iterator, NoReturn

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
    and serves Kh only.  ``edges`` holds the classified cube edges, source
    vertex ascending, then crossing.
    """

    # Only perfbench/tracer.py reads this, to key its build counts; it goes
    # with ROADMAP item 6.
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
    edges: list[cube.EdgeType] = field(repr=False)
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


def _transport_table(edge: cube.EdgeType, reduced: bool) -> tuple[list[int], list[int]]:
    """Source labelings with every participating circle "-", ascending,
    and their target labelings, built one circle at a time by doubling.

    ``reduced`` keeps circle 0 "-" and returns labelings shifted right by
    one, the reduced index offsets.
    """
    rest, image = [0], [0]
    for si, ti in edge.correspondence.items():
        if reduced:
            if si == 0:
                continue
            if ti == 0:
                raise FilteredComplexError(
                    f"arrow leaves the reduced complex: circle {si} is carried onto circle 0"
                )
        bit, tbit = 1 << si >> reduced, 1 << ti >> reduced
        rest += [lab | bit for lab in rest]
        image += [lab | tbit for lab in image]
    return rest, image


def _cube_edges(c: int):
    """The edges alpha -> alpha | 1 << b of a c-cube, alpha ascending, then b."""
    return (
        (alpha, alpha | 1 << b) for alpha in range(1 << c) for b in range(c)
        if not (alpha >> b) & 1
    )


def _classify_edges(resolutions: list[cube.Resolution], c: int) -> list[cube.EdgeType]:
    """Every cube edge, classified, in ``_cube_edges`` order.

    Equal edge types are one shared object: a 10-crossing cube has 5,120
    edges but about a hundred types.
    """
    types: dict[tuple, cube.EdgeType] = {}
    edges = []
    for alpha, alpha2 in _cube_edges(c):
        edge = cube.classify_resolutions(resolutions[alpha], resolutions[alpha2])
        key = (
            edge.kind, edge.source_circles, edge.target_circles,
            tuple(edge.correspondence.items()),
        )
        edges.append(types.setdefault(key, edge))
    return edges


def build_complex(
    diagram: AnnularDiagram,
    resolutions: list[cube.Resolution] | None = None,
    edges: list[cube.EdgeType] | None = None,
    reduced: bool = False,
) -> GradedComplex:
    """Build the Khovanov cube-of-chains complex and verify d^2 = 0.

    ``resolutions`` and ``edges`` (as kept by ``GradedComplex``) are reused
    when given.  ``reduced`` builds the Kh subcomplex where circle 0
    is "-", raising FilteredComplexError if an arrow leaves it.  Raises
    DiagramTooLarge before building any arrow, at the first cube vertex
    that brings the generators so far past MAX_GENERATORS, before that
    vertex's labelings are expanded or the next vertex is resolved.
    """
    c = diagram.n_crossings
    n_pos, n_neg = diagram.n_pos, diagram.n_neg

    if resolutions is None:
        # resolved one vertex at a time, so an oversize cube is refused early
        resolutions = (cube.resolve(diagram, a) for a in range(1 << c))

    resolved, offsets, vertex_of, gi, gj, gk = [], [], [], [], [], []
    for alpha, res in enumerate(resolutions):
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

    if edges is None:
        edges = _classify_edges(resolved, c)
    out: list[list[int]] = [[] for _ in range(total)]
    ids = list(range(total))  # one int object per target, shared by its arrows
    maps: dict[int, tuple] = {}  # per distinct edge object: rule, transport
    for (alpha, alpha2), edge in zip(_cube_edges(c), edges, strict=True):
        if id(edge) not in maps:
            maps[id(edge)] = (_edge_rule(edge), *_transport_table(edge, reduced))
        rule, rest, image = maps[id(edge)]
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
        edges=edges,
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


def _split(gc: GradedComplex, theory: Theory, row_of=None):
    """The blocks of ``gc`` along the block keys of ``theory``: the members
    of each block, and ``engine_block(b)``, which assembles block b.

    Each generator g is filtered by i and carries its block key as
    auxiliary grading; ``row_of(g)`` lists its arrow targets (default: its
    ``theory`` arrows, ``rows_of``) and is called once per generator, when
    its block is assembled.  members[x] is the generator of ``gc`` at
    engine index x.  Members are numbered level by level: by i, then in
    generator order.  A cube arrow raises i by one, so each engine row
    spans at most two adjacent levels.
    """
    keys = _block_keys(theory, gc.gj, gc.gk)
    row_of = rows_of(gc, theory) if row_of is None else row_of
    ids: dict[tuple, int] = {}
    block_of = [ids.setdefault(key, len(ids)) for key in keys]
    groups: list[list[int]] = [[] for _ in ids]
    for g, b in enumerate(block_of):
        groups[b].append(g)
    local = [0] * gc.n_generators
    for members in groups:
        members.sort(key=gc.gi.__getitem__)  # stable: level by level
        for x, g in enumerate(members):
            local[g] = x

    def engine_block(b: int) -> FilteredComplex:
        members = groups[b]
        rows = [row_of(g) for g in members]
        if {block_of[y] for row in rows for y in row} - {b}:
            raise FilteredComplexError("arrow leaves its grading block")
        return FilteredComplex.from_rows(
            [gc.gi[g] for g in members],
            [keys[g] for g in members],
            ([local[y] for y in row] for row in rows),
        )

    return groups, engine_block


def _blocks(
    gc: GradedComplex, theory: Theory, row_of=None
) -> Iterator[tuple[FilteredComplex, list[int]]]:
    """The (complex, members) pairs of ``_split``, one block at a time, in
    this process.

    A block is built only when the next pair is asked for and the
    generator keeps no reference to it, so a consumer that drops each
    complex before asking for the next holds one block's bitsets at a time.
    """
    groups, engine_block = _split(gc, theory, row_of)
    for b, members in enumerate(groups):
        yield engine_block(b), members


def _map_blocks(gc: GradedComplex, theory: Theory, fn, row_of=None) -> list:
    """``fn(C, members)`` for every block of ``_split``, in block order,
    with the blocks shared out over the CPUs by ``_fork_map``.  Each
    process assembles its blocks one at a time, and ``fn`` may cancel C in
    place: C is dropped when ``fn`` returns."""
    groups, engine_block = _split(gc, theory, row_of)
    return _fork_map(
        lambda b: fn(engine_block(b), groups[b]),
        range(len(groups)),
        [len(members) for members in groups],
    )


# ---------------------------------------------------------------------------
# blocks on every CPU

# Complexes with fewer generators stay in one process.  On a 2-vCPU host a
# fork round trip (fork, copy-on-write faults, pickled results, reaping)
# took 2.5-2.75 ms (median) from a 22-30 MB parent, and block assembly and
# cancellation 6-11 us per generator, more in larger complexes.  A second
# process takes at most half the work off the parent, and less when the
# blocks are uneven, so forking pays from about 1,000-2,000 generators on:
# two processes took homology_of from 10.3 to 12.3 ms on a 1,602-generator
# cover and from 58 to 40 ms on a 6,564-generator one.  The four-letter
# quotients and the three-letter covers stay inline; four-letter covers
# and 10-crossing closures fork.
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


def homology_of(gc: GradedComplex, theory: Theory) -> dict[tuple, int]:
    """Graded homology ranks of ``theory``: keys (i, j, k) for AKh, (i, j)
    for Kh.

    A reduced complex, with homology h, gives the Kh ranks
    h^{i,j} + h^{i,j-2}.
    """
    table: dict[tuple, int] = {}
    # homology_ranks cancels each block in place
    for ranks in _map_blocks(gc, theory, lambda C, _: homology_ranks(C)):
        table.update(ranks)
    if gc.reduced:
        table = {
            (i, j): table.get((i, j), 0) + table.get((i, j - 2), 0)
            for i, j0 in table
            for j in (j0, j0 + 2)
        }
    return table


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
