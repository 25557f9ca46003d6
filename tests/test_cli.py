import json
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from annulus_tate import cli, cube, khovanov, tate
from annulus_tate.khovanov import Theory
from annulus_tate.links import parse_braid_word
from annulus_tate.tate import Verdict

from conftest import watch_block_builds


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    result = runner.invoke(cli.main, args, catch_exceptions=False, **kwargs)
    return result


def test_akh_golden_quotient(runner):
    result = invoke(runner, ["akh", "--braid", "1", "--strands", "2"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["ranks"] == {"0,-1,-2": 1, "0,1,0": 1, "0,3,2": 1, "1,3,0": 1}
    assert report["total_rank"] == 4


def test_akh_golden_cover(runner):
    result = invoke(runner, ["akh", "--braid", "1 1", "--strands", "2"])
    report = json.loads(result.output)
    assert report["ranks"] == {
        "0,0,-2": 1, "0,2,0": 1, "0,4,2": 1, "1,4,0": 1, "2,4,0": 1, "2,6,0": 1,
    }


def test_version_needs_no_installed_metadata(runner):
    result = invoke(runner, ["--version"])
    assert result.exit_code == 0
    assert result.output == "annulus-tate, version 0.1.0\n"


def test_akh_unknot(runner):
    result = invoke(runner, ["akh", "--braid", "", "--strands", "1"])
    report = json.loads(result.output)
    assert report["ranks"] == {"0,-1,-1": 1, "0,1,1": 1}


def test_kh_trefoil(runner):
    result = invoke(runner, ["kh", "--braid", "1 1 1", "--strands", "2"])
    report = json.loads(result.output)
    assert report["total_rank"] == 6


def test_akh_takes_any_closure_within_the_guards(runner):
    # the 24-crossing double cover of a 12-letter word is never built
    result = invoke(runner, ["akh", "--braid", " ".join(["1 2"] * 6), "--strands", "3"])
    assert result.exit_code == 0
    assert json.loads(result.output)["total_rank"] == 24
    # closures over the generator guard are refused by that guard
    for braid, c in ((" ".join(["1 -1"] * 6 + ["1"]), 13), (" ".join(["1 -1"] * 11), 22)):
        result = runner.invoke(cli.main, ["akh", "--braid", braid, "--strands", "2"])
        assert result.exit_code == 1
        assert result.output.startswith(
            f"Error: the {c}-crossing diagram has more than the 750,000-generator limit"
        )


@pytest.mark.parametrize(
    "braid,strands", [("2", "2"), ("0", "2"), ("x", "2")]
)
def test_parse_errors_exit_nonzero(runner, braid, strands):
    result = runner.invoke(cli.main, ["akh", "--braid", braid, "--strands", strands])
    assert result.exit_code != 0
    assert result.output.strip()


def test_json_output_round_trips(runner):
    result = invoke(runner, ["akh", "--braid", "1 -2", "--strands", "3"])
    report = json.loads(result.output)
    assert json.dumps(report, indent=2) + "\n" == result.output


AKH_VERDICTS = [
    "equivariance-akh", "e2-correspondence", "collapse-akh", "diagonal-ranks",
    "rank-inequality",
]
KH_VERDICTS = ["equivariance-kh", "collapse-kh", "khtate-limit", "cascade"]


def test_periodic_passes_and_reports(runner):
    result = invoke(runner, ["periodic", "--braid", "1", "--strands", "2"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    names = [v["name"] for v in report["verdicts"]]
    assert names == AKH_VERDICTS + KH_VERDICTS + ["congruences"]
    assert all(v["passed"] is not False for v in report["verdicts"])
    assert report["ok"] is True


def test_periodic_theory_flag(runner):
    for theory, expected in (("akh", AKH_VERDICTS), ("kh", KH_VERDICTS)):
        result = invoke(
            runner, ["periodic", "--braid", "1", "--strands", "2", "--theory", theory]
        )
        names = [v["name"] for v in json.loads(result.output)["verdicts"]]
        assert names == expected + ["congruences"]


def test_periodic_window_override(runner):
    # the Tate complex is computed exactly, so there is no window to override
    result = runner.invoke(
        cli.main, ["periodic", "--braid", "1", "--strands", "2", "--window", "11"]
    )
    assert result.exit_code == 2
    assert "No such option" in result.output


def test_periodic_report_is_schema_2_without_window(runner):
    report = json.loads(invoke(runner, ["periodic", "--braid", "1", "--strands", "2"]).output)
    assert report["schema"] == 2
    assert report["input"] == {"braid": "1", "strands": 2, "theory": "both"}


def _count_builds(monkeypatch) -> list[tuple]:
    """Patch ``build_complex`` where it is called to record (crossings,
    reduced) per build; returns the list it appends to."""
    calls = []
    build = khovanov.build_complex

    def counting(diagram, reduced=False):
        calls.append((diagram.n_crossings, reduced))
        return build(diagram, reduced=reduced)

    monkeypatch.setattr(khovanov, "build_complex", counting)
    monkeypatch.setattr(tate, "build_complex", counting)
    return calls


def test_periodic_builds_each_complex_once(runner, monkeypatch):
    run = tate.PeriodicRun(parse_braid_word("1 -1", 2))
    quotient, cover = run.complex("quotient"), run.complex("cover")

    def n_blocks(theory):
        return sum(
            len(set(khovanov._block_keys(theory, gc.gj, gc.gk))) for gc in (quotient, cover)
        )

    calls = _count_builds(monkeypatch)
    blocks = watch_block_builds(monkeypatch)
    # each side's blocks are the j blocks of its Kh rows when Kh runs, and
    # the (j, k) blocks of its AKh rows otherwise
    for theory, blocks_of in (("both", Theory.KH), ("kh", Theory.KH), ("akh", Theory.AKH)):
        calls.clear()
        blocks.clear()
        result = invoke(
            runner, ["periodic", "--braid", "1 -1", "--strands", "2", "--theory", theory]
        )
        assert result.exit_code == 0
        # the full complex of each side, which gives both of its tables
        assert sorted(calls) == [(2, False), (4, False)]
        # one assembly per block of each side: every table of the side, the
        # cover's Tate pages included, is read off it
        assert len(blocks) == n_blocks(blocks_of), theory


@pytest.mark.parametrize("theory, tate_passes, cover_passes", [
    ("kh", [(Theory.KH,)], []),
    ("akh", [(Theory.AKH,)], []),
    ("both", [(Theory.AKH, Theory.KH)], []),
])
def test_periodic_runs_the_tate_pages_of_its_theories_only(
    runner, monkeypatch, theory, tate_passes, cover_passes
):
    # one Tate pass gives every cover table, whatever the run's theories,
    # and one homology pass every quotient table
    passes, homology = [], []
    hv_pages, homologies_of = tate.hv_pages, tate.homologies_of

    def counting_pages(cover, tau, which):
        passes.append(tuple(which))
        return hv_pages(cover, tau, which)

    def counting_homology(gc, which):
        homology.append((gc.diagram.n_crossings, tuple(which)))
        return homologies_of(gc, which)

    monkeypatch.setattr(tate, "hv_pages", counting_pages)
    monkeypatch.setattr(tate, "homologies_of", counting_homology)
    result = invoke(
        runner, ["periodic", "--braid", "1 -1", "--strands", "2", "--theory", theory]
    )
    assert result.exit_code == 0
    assert passes == tate_passes
    assert [which for crossings, which in homology if crossings == 4] == cover_passes
    # AKh is read in every run: the congruences read both sides' AKh tables
    read = (Theory.AKH, Theory.KH) if theory != "akh" else (Theory.AKH,)
    assert homology == [(2, read)]


@pytest.mark.parametrize("command, reduced", [("akh", False), ("kh", True)])
def test_rank_commands_build_one_complex(runner, monkeypatch, command, reduced):
    calls = _count_builds(monkeypatch)
    result = invoke(runner, [command, "--braid", "1 -1", "--strands", "2"])
    assert result.exit_code == 0
    assert calls == [(2, reduced)]


def test_periodic_resolves_each_vertex_once(runner, monkeypatch):
    calls = []
    resolve = cube.resolve

    def counting(diagram, alpha, *links):
        calls.append((diagram, alpha))
        return resolve(diagram, alpha, *links)

    monkeypatch.setattr(cube, "resolve", counting)
    result = invoke(
        runner, ["periodic", "--braid", "1 -1", "--strands", "2", "--theory", "both"]
    )
    assert result.exit_code == 0
    # 2^2 quotient and 2^4 cover vertices, in one build per side
    assert len(calls) == len(set(calls)) == 2**2 + 2**4


def test_periodic_classifies_each_edge_once(runner, monkeypatch):
    calls = []
    classify = cube.classify_resolutions

    def counting(source, target, *args):
        calls.append((source, target))
        return classify(source, target, *args)

    monkeypatch.setattr(cube, "classify_resolutions", counting)
    result = invoke(
        runner, ["periodic", "--braid", "1 -1", "--strands", "2", "--theory", "both"]
    )
    assert result.exit_code == 0
    # 2 * 2 quotient and 4 * 2^3 cover edges, in one build per side
    assert len(calls) == len(set(calls)) == 2 * 2 + 4 * 2**3


@pytest.mark.parametrize(
    "args",
    [
        ["kh", "--braid", "1 -1 1 -1 1 1 -1 1", "--strands", "2"],
        ["periodic", "--braid", "1 -1 1 1", "--strands", "2"],
        ["decat", "--braid", "1 -1 1 1", "--strands", "2"],
    ],
    ids=["kh", "periodic", "decat"],
)
def test_word_computation_pauses_the_gc_and_restores_it(runner, args):
    import gc

    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(record)
    try:
        assert invoke(runner, args).exit_code == 0
    finally:
        gc.callbacks.remove(record)
    assert gc.isenabled()
    # collections outside the paused computation (the report's JSON) are
    # far fewer than the dozens its rows would trigger
    assert len(collections) <= 2
    gc.disable()
    try:
        assert invoke(runner, args).exit_code == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_periodic_computes_tau_once(runner, monkeypatch):
    tables = []
    table = tate.tau_table

    def counting(gc):
        tables.append(table(gc))
        return tables[-1]

    monkeypatch.setattr(tate, "tau_table", counting)
    result = invoke(
        runner, ["periodic", "--braid", "1 -2", "--strands", "3", "--theory", "both"]
    )
    assert result.exit_code == 0
    assert len(tables) == 1
    # one cover complex serves both theories, so one tau table serves both
    run = tate.PeriodicRun(parse_braid_word("1 -2", 3))
    assert table(run.complex("cover")) == run.tau == tables[0]


@pytest.mark.parametrize(
    "args",
    [
        ["periodic", "--braid", "1 1 1 1 1 1 1", "--strands", "2"],
        ["periodic", "--braid", "", "--strands", "25"],
        ["akh", "--braid", "", "--strands", "24"],
        ["akh", "--braid", "", "--strands", "1000000"],
        ["akh", "--braid", " ".join(["1"] * 23), "--strands", "2"],
        ["akh", "--braid", " ".join(["1 -1"] * 6 + ["1"]), "--strands", "2"],
        ["akh", "--braid", " ".join(["1 -1"] * 11), "--strands", "2"],
    ],
    ids=[
        "periodic-14x-cover", "periodic-25-strands", "akh-24-strands",
        "akh-1000000-strands", "akh-23x", "akh-13x", "akh-22x",
    ],
)
def test_oversize_input_is_refused_in_one_line(runner, args):
    result = runner.invoke(cli.main, args)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ")


def test_readme_quotes_the_refusal_it_shows(runner):
    # the README's example of the generator guard: a command and its one line
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    command, line = re.search(r"^\$ annulus-tate (.+)\n(Error: .+)$", readme, re.M).groups()
    result = runner.invoke(cli.main, shlex.split(command))
    assert result.exit_code == 1
    assert result.output == line + "\n"


def test_periodic_failure_exits_nonzero(runner, monkeypatch):
    monkeypatch.setattr(
        cli,
        "verify_rank_inequality",
        lambda run: Verdict("rank-inequality", False, {"forced": True}),
    )
    result = runner.invoke(
        cli.main, ["periodic", "--braid", "1", "--strands", "2"]
    )
    assert result.exit_code == 1
    assert json.loads(result.output)["ok"] is False


def test_periodic_length_guard(runner):
    result = runner.invoke(
        cli.main, ["periodic", "--braid", "1 1 1 1 1 1 1 1 1", "--strands", "2"]
    )
    assert result.exit_code != 0


def test_decat_command(runner):
    result = invoke(runner, ["decat", "--braid", "1", "--strands", "2"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["congruences"] == {"graded": True, "murasugi": True, "jones": True}
    assert [0, -1, -2, 1] in report["state_sum"]


def test_resolve_single_alpha(runner):
    result = invoke(
        runner,
        ["resolve", "--braid", "1 1", "--strands", "2", "--alpha", "11"],
    )
    rows = json.loads(result.output)["resolutions"]
    assert rows == [
        {"alpha": "11", "circles": 2, "seam_counts": [2, 0], "trivial": [True, True]}
    ]


def test_resolve_lists_all(runner):
    result = invoke(runner, ["resolve", "--braid", "1", "--strands", "2"])
    rows = json.loads(result.output)["resolutions"]
    assert [r["alpha"] for r in rows] == ["0", "1"]


def test_resolve_guard_requires_alpha_for_large_diagrams(runner):
    braid = " ".join(["1"] * 13)
    result = runner.invoke(cli.main, ["resolve", "--braid", braid, "--strands", "2"])
    assert result.exit_code != 0


@pytest.mark.parametrize("alpha", [[], ["--alpha", "0" * 23]], ids=["listing", "alpha"])
def test_resolve_refuses_a_word_over_the_crossing_guard(runner, alpha):
    braid = " ".join(["1"] * 23)
    result = runner.invoke(cli.main, ["resolve", "--braid", braid, "--strands", "2", *alpha])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output == "Error: 23 crossings exceeds the 22-crossing guard\n"


def test_resolve_alpha_width_mismatch(runner):
    result = runner.invoke(
        cli.main,
        ["resolve", "--braid", "1 1", "--strands", "2", "--alpha", "101"],
    )
    assert result.exit_code != 0


def test_cache_hit_is_bit_identical(runner, tmp_path):
    args = ["akh", "--braid", "1", "--strands", "2", "--cache-dir", str(tmp_path)]
    first = invoke(runner, args)
    assert list(tmp_path.iterdir())
    second = invoke(runner, args)
    assert first.output == second.output


def test_cache_env_var_overrides(runner, tmp_path, monkeypatch):
    env_dir = tmp_path / "env"
    flag_dir = tmp_path / "flag"
    monkeypatch.setenv(cli.CACHE_ENV, str(env_dir))
    invoke(
        runner,
        ["akh", "--braid", "1", "--strands", "2", "--cache-dir", str(flag_dir)],
    )
    assert env_dir.is_dir() and list(env_dir.iterdir())
    assert not flag_dir.exists()


def test_truncated_cache_entry_is_a_miss(runner, tmp_path):
    args = ["akh", "--braid", "1", "--strands", "2", "--cache-dir", str(tmp_path)]
    first = invoke(runner, args)
    (entry,) = tmp_path.iterdir()
    entry.write_bytes(entry.read_bytes()[:40])
    second = invoke(runner, args)
    assert second.exit_code == 0
    assert json.loads(second.output)["ranks"] == json.loads(first.output)["ranks"]
    # the recomputed report replaced the torn entry, with no leftovers
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]
    assert json.loads(entry.read_bytes()) == json.loads(second.output)


@pytest.mark.parametrize(
    "args",
    [
        ["akh", "--braid", "1", "--strands", "2"],
        ["corpus", "--max-strands", "2", "--max-length", "1", "--jobs", "1"],
    ],
    ids=["akh", "corpus"],
)
def test_an_unusable_cache_directory_is_refused_before_computing(
    runner, tmp_path, monkeypatch, args
):
    built = []
    for module in (khovanov, tate):
        monkeypatch.setattr(module, "build_complex", lambda *a, **k: built.append(a))
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    result = runner.invoke(cli.main, [*args, "--cache-dir", str(not_a_dir)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        f"Error: cannot use cache directory {not_a_dir}: File exists"
    ]
    assert not built


def test_corpus_empty_bounds(runner):
    result = invoke(runner, ["corpus", "--max-strands", "0", "--max-length", "2"])
    report = json.loads(result.output)
    assert report["counts"] == {"words": 0, "passed": 0, "failed": 0}
    assert report["ok"] is True


def test_corpus_small_bounds(runner, tmp_path):
    result = invoke(
        runner,
        [
            "corpus", "--max-strands", "2", "--max-length", "1",
            "--jobs", "1", "--cache-dir", str(tmp_path),
        ],
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["counts"] == {"words": 4, "passed": 4, "failed": 0}
    words = [w["braid"] for w in report["words"]]
    assert words == ["", "", "1", "-1"]  # strands ascending, then length, then letters


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and initializer,
    runs in-process."""

    sizes: list = []
    initializers: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        RecordingPool.sizes.append(max_workers)
        RecordingPool.initializers.append((initializer, initargs))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs,cpus,expected", [("100000", 8, 4), ("3", 2, 2)])
def test_corpus_pool_size_is_clamped(runner, monkeypatch, jobs, cpus, expected):
    # the engine's CPU count caps the pool, and each worker runs the engine inline
    RecordingPool.sizes, RecordingPool.initializers = [], []
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(khovanov, "cpu_count", lambda: cpus)
    result = invoke(
        runner, ["corpus", "--max-strands", "2", "--max-length", "1", "--jobs", jobs]
    )
    assert json.loads(result.output)["counts"]["words"] == 4
    assert RecordingPool.sizes == [expected]
    assert RecordingPool.initializers == [(khovanov.limit_processes, (1,))]


@pytest.mark.parametrize("jobs, forks", [("1", False), ("2", True)])
def test_corpus_in_process_runs_the_engine_on_at_most_jobs_processes(
    runner, monkeypatch, jobs, forks
):
    # one word, so no pool: the engine itself may fork up to --jobs processes
    forked = []
    fork = cli.os.fork

    def counting_fork():
        forked.append(1)
        return fork()

    monkeypatch.setattr(khovanov, "cpu_count", lambda: 2)
    monkeypatch.setattr(khovanov, "FORK_MIN_GENERATORS", 0)
    monkeypatch.setattr(cli.os, "fork", counting_fork)
    result = invoke(
        runner, ["corpus", "--max-strands", "1", "--max-length", "0", "--jobs", jobs]
    )
    assert json.loads(result.output)["counts"] == {"words": 1, "passed": 1, "failed": 0}
    assert bool(forked) is forks
    assert khovanov._max_processes is None  # the limit is lifted afterwards


def test_corpus_rejects_nonpositive_jobs(runner):
    result = runner.invoke(cli.main, ["corpus", "--jobs", "0"])
    assert result.exit_code == 2


def test_corpus_bounds_guards(runner):
    assert runner.invoke(cli.main, ["corpus", "--max-length", "9"]).exit_code != 0
    assert runner.invoke(cli.main, ["corpus", "--max-strands", "6"]).exit_code != 0


def test_corpus_reuses_word_cache(runner, tmp_path):
    args = [
        "corpus", "--max-strands", "2", "--max-length", "1",
        "--jobs", "1", "--cache-dir", str(tmp_path),
    ]
    first = invoke(runner, args)
    n_files = len(list(tmp_path.iterdir()))
    second = invoke(runner, args)
    assert first.output == second.output
    assert len(list(tmp_path.iterdir())) == n_files


def test_cache_key_holds_the_version_and_the_sources(runner, tmp_path, monkeypatch):
    args = ["akh", "--braid", "1", "--strands", "2", "--cache-dir", str(tmp_path)]
    monkeypatch.setattr(cli, "_source_digest", lambda: "a")
    first = invoke(runner, args)
    for name, value in (("_source_digest", lambda: "b"), ("__version__", "0.0.0")):
        with monkeypatch.context() as patch:
            patch.setattr(cli, name, value)
            invoke(runner, args)  # a different digest or version misses
    assert len(list(tmp_path.iterdir())) == 3
    replay = invoke(runner, args)  # the same digest hits, byte for byte
    assert replay.output == first.output
    assert len(list(tmp_path.iterdir())) == 3


def test_table_format(runner):
    result = invoke(
        runner, ["akh", "--braid", "1", "--strands", "2", "--format", "table"]
    )
    assert result.exit_code == 0
    assert "ranks:" in result.output
    assert "0,3,2" in result.output
