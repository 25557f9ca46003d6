"""The engine's blocks on every CPU: forked runs give the inline results, and
a failing or vanishing child is loud and leaves no process behind."""

import os
import re
import signal
import time

import pytest

from annulus_tate import khovanov
from annulus_tate.f2algebra import FilteredComplexError
from annulus_tate.khovanov import (
    Theory,
    _fork_map,
    _map_blocks,
    build_complex,
    homologies_of,
    homology_of,
)
from annulus_tate.links import close_braid, parse_braid_word
from annulus_tate.tate import PeriodicRun, hv_pages

from conftest import vh_pages

HOPF = close_braid(parse_braid_word("1 1", 2))


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """Count the engine's forks; returns the list each fork appends to."""
    calls: list[int] = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(khovanov.os, "fork", counting_fork)
    return calls


def on_cpus(monkeypatch, cpus: int, min_generators: int | None = None) -> None:
    monkeypatch.setattr(khovanov, "cpu_count", lambda: cpus)
    if min_generators is not None:
        monkeypatch.setattr(khovanov, "FORK_MIN_GENERATORS", min_generators)


def in_child(parent: int, action):
    """An item function that returns its item in ``parent`` and runs
    ``action`` in a forked child."""
    def fn(item):
        if os.getpid() == parent:
            return item
        return action()
    return fn


def raise_(exc):
    raise exc


# -- failures stay loud, and no process is left behind


def test_a_child_exception_is_raised_in_the_parent(monkeypatch, forks):
    on_cpus(monkeypatch, 2, 0)
    # sizes put item 0 in the parent's share and item 1 in the child's
    error = FilteredComplexError("arrow leaves its grading block")
    fn = in_child(os.getpid(), lambda: raise_(error))
    with pytest.raises(FilteredComplexError, match=r"^arrow leaves its grading block$"):
        _fork_map(fn, [0, 1], [2, 1])
    assert forks == [1]


def test_an_arrow_between_blocks_is_refused_in_a_child(monkeypatch, forks):
    gc = build_complex(HOPF)
    groups = _map_blocks(gc, Theory.KH, lambda members, index: members)
    # the parent runs the largest block, the lowest-numbered of equal ones
    largest = max(range(len(groups)), key=lambda b: (len(groups[b]), -b))
    x = next(g for b, members in enumerate(groups) if b != largest for g in members)
    y = next(g for g in range(gc.n_generators) if gc.gj[g] != gc.gj[x])
    gc.out[x] += (y,)  # a Kh row, which a child reads from its copy-on-write image
    # inline, then with one process per block
    for cpus, n_forks in ((1, 0), (len(groups), len(groups) - 1)):
        on_cpus(monkeypatch, cpus, 0)
        with pytest.raises(FilteredComplexError, match=r"^arrow leaves its grading block$"):
            homology_of(gc, Theory.KH)
        assert forks == [1] * n_forks


def test_a_tau_between_blocks_is_refused_in_a_child(monkeypatch, forks):
    run = PeriodicRun(parse_braid_word("1", 2))
    gc = run.complex("cover")
    groups = _map_blocks(gc, Theory.AKH, lambda members, index: members)
    largest = max(range(len(groups)), key=lambda b: (len(groups[b]), -b))
    x = next(g for b, members in enumerate(groups) if b != largest for g in members)
    y = next(g for g in range(gc.n_generators) if gc.gj[g] != gc.gj[x])
    tau = list(run.tau)
    tau[x] = y
    # inline, on two processes, then with one process per block
    for cpus, n_forks in ((1, 0), (2, 1), (len(groups), len(groups) - 1)):
        forks.clear()
        on_cpus(monkeypatch, cpus, 0)
        with pytest.raises(FilteredComplexError, match=r"^arrow leaves its grading block$"):
            hv_pages(gc, tau, [Theory.AKH])
        assert forks == [1] * n_forks


@pytest.mark.parametrize("action, how", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os._exit(0), "exit status 0"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
])
def test_a_child_that_ends_without_a_result_names_its_blocks(monkeypatch, action, how):
    on_cpus(monkeypatch, 3, 0)
    fn = in_child(os.getpid(), action)
    # shares: parent [0, 3], children [1] and [2]
    with pytest.raises(RuntimeError, match=rf"for blocks \[1\] ended with {how} and no result$"):
        _fork_map(fn, [0, 1, 2, 3], [4, 3, 2, 1])


def test_an_interrupt_kills_and_reaps_every_child(monkeypatch):
    on_cpus(monkeypatch, 3, 0)

    def fn(item):
        if item == 0:  # the parent's share
            raise KeyboardInterrupt
        time.sleep(60)

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _fork_map(fn, [0, 1, 2], [3, 2, 1])
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_come_back_in_item_order(monkeypatch, forks):
    on_cpus(monkeypatch, 3, 0)
    items = list(range(10))
    results = _fork_map(lambda i: (i, os.getpid()), items, [5, 1, 9, 3, 3, 7, 2, 8, 1, 4])
    assert [i for i, _ in results] == items
    assert len({pid for _, pid in results}) == 3 and forks == [1, 1]


@pytest.mark.parametrize("cpus, total, forked", [
    (1, 10_000, False),
    (2, khovanov.FORK_MIN_GENERATORS - 1, False),
    (2, khovanov.FORK_MIN_GENERATORS, True),
])
def test_small_work_and_one_cpu_stay_inline(monkeypatch, forks, cpus, total, forked):
    on_cpus(monkeypatch, cpus)
    assert _fork_map(lambda i: i * i, [1, 2], [total - total // 2, total // 2]) == [1, 4]
    assert bool(forks) is forked


# -- inline and forked runs give identical results


def engine_results(run: PeriodicRun, reduced) -> list:
    """Every engine output, item order included: the tables of one pass of
    both theories and of AKh alone, and the Tate pass of each."""
    full = run.complex("cover")
    out = [
        [list(table.items()) for table in homologies_of(full, list(Theory)).values()],
        list(homology_of(full, Theory.AKH).items()),
        list(homology_of(reduced, Theory.KH).items()),
    ]
    for theories in (list(Theory), [Theory.AKH]):
        covers, pages = hv_pages(full, run.tau, theories)
        out.append([(theory, list(table.items())) for theory, table in covers.items()])
        for theory, hv in pages.items():
            assert hv.cover is covers[theory]
            out.append([list(hv.pages.ranks[r].items()) for r in hv.pages.ranks])
            out.append(list(hv.pages.d_nonzero.items()))
            out.append((hv.odd_pages_ok, sorted(hv.d2_observed), hv.d2_strays))
    # vh_pages maps its blocks as hv_pages does; AKh alone keeps the cost down
    vh = vh_pages(full, run.tau, Theory.AKH, covers[Theory.AKH])
    out.append([list(vh.pages.ranks[r].items()) for r in vh.pages.ranks])
    out.append((list(vh.pages.d_nonzero.items()), vh.e1_ok))
    return out


def d_squared_refusal(gc, drop: list[int]) -> str:
    """The d^2 message after each generator s of ``drop`` loses its first
    arrow; the rows are restored afterwards."""
    saved = {s: gc.out[s] for s in drop}
    try:
        for s in drop:
            gc.out[s] = gc.out[s][1:]
        with pytest.raises(FilteredComplexError) as info:
            gc.check_d_squared()
        return str(info.value)
    finally:
        for s, row in saved.items():
            gc.out[s] = row


@pytest.fixture(scope="module")
def runs():
    """The "1 1 1 1"/2 cover (6,564 generators) and the 10-crossing cover of
    "1 -1 1 -1 1"/2: (run, reduced complex, inline engine results)."""
    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(khovanov, "cpu_count", lambda: 1)
        for braid in ("1 1 1 1", "1 -1 1 -1 1"):
            run = PeriodicRun(parse_braid_word(braid, 2))
            reduced = build_complex(run.cover_diagram, reduced=True)
            out.append((run, reduced, engine_results(run, reduced)))
    return out


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("which", [0, 1], ids=["cover-6564", "closure-10x"])
def test_forked_runs_give_the_inline_results(monkeypatch, forks, runs, which, cpus):
    run, reduced, inline = runs[which]
    on_cpus(monkeypatch, cpus)
    assert engine_results(run, reduced) == inline
    assert forks


@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_d_squared_check_names_the_lowest_failing_generator(monkeypatch, forks, runs, cpus):
    full = runs[1][0].complex("cover")
    assert full.n_generators // 5 >= khovanov.FORK_MIN_GENERATORS  # the check forks
    n = full.n_generators
    top = max(s for s in range(n) if full.out[s])
    middle = next(s for s in range(n // 2, n) if full.out[s])
    on_cpus(monkeypatch, 1)
    # failures only in the last third (a child's range), then also lower down
    inline = [d_squared_refusal(full, drop) for drop in ([top], [top, middle])]
    assert not forks
    assert int(re.search(r"generator (\d+):", inline[0])[1]) >= 2 * n // 3
    on_cpus(monkeypatch, cpus)
    assert [d_squared_refusal(full, drop) for drop in ([top], [top, middle])] == inline
    assert forks
    full.check_d_squared()  # restored
