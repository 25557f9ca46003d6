"""Command-line interface: rank tables, periodicity verification, corpus runs.

Reports are JSON (schema 2) with deterministic field order, or aligned
text tables.  Grading keys serialize as comma-joined strings ("i,j,k").
When a cache directory is configured (the ANNULUS_TATE_CACHE environment
variable overrides --cache-dir), a repeated invocation with an identical
config, package version and package sources returns the cached report
byte for byte.
"""

from __future__ import annotations

import concurrent.futures
import functools
import gc
import hashlib
import json
import os
import time
from pathlib import Path

import click

from . import __version__, decat, khovanov
from .cube import PortLinks, format_bits, parse_bits, resolve
from .khovanov import Theory, homology, total_rank
from .links import (
    BraidError,
    BraidWord,
    DiagramTooLarge,
    close_braid,
    double_cover,
    parse_braid_word,
)
from .tate import (
    PeriodicRun,
    Verdict,
    verify_cascade,
    verify_collapse,
    verify_congruences,
    verify_diagonals,
    verify_e2_correspondence,
    verify_khtate_limit,
    verify_rank_inequality,
)

SCHEMA_VERSION = 2
CACHE_ENV = "ANNULUS_TATE_CACHE"

MAX_CORPUS_LENGTH = 8
MAX_CORPUS_STRANDS = 5
MAX_RESOLVE_LISTING = 12  # crossings; 2^c resolutions are printed without --alpha


def _jsonify(obj):
    """Normalize to JSON-native types so reports round-trip exactly."""
    if isinstance(obj, dict):
        return {
            (",".join(map(str, k)) if isinstance(k, tuple) else str(k)): _jsonify(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonify(v) for v in items]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float, str)):
        return obj
    return str(obj)


def _rank_table_json(table: dict[tuple, int]) -> dict[str, int]:
    return {
        ",".join(map(str, key)): table[key]
        for key in sorted(k for k, v in table.items() if v)
    }


def _verdict_json(v: Verdict) -> dict:
    return {"name": v.name, "passed": v.passed, "details": _jsonify(v.details)}


def _without_gc(compute):
    """``compute`` with the cyclic garbage collector paused while it runs.

    A word's complexes hold a tuple of arrow targets per generator (a cube
    complex, about 148 traced bytes per generator with its gradings, see
    ``BENCH_memory.json``) or an int per generator and direction (an
    engine block), and form no reference cycles, so collections would
    only traverse them over and over.  They
    are freed when ``compute`` returns, before the collector's previous
    state is restored.
    """

    @functools.wraps(compute)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return compute(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


def _load_word(braid: str, strands: int) -> BraidWord:
    try:
        return parse_braid_word(braid, strands)
    except BraidError as exc:
        raise click.ClickException(str(exc)) from None


def _cache_dir(flag_value: str | None) -> Path | None:
    """The cache directory (the environment variable overrides the flag),
    created if missing, or None when neither names one.  A directory that
    cannot be created is refused in one line, before anything is computed."""
    path = os.environ.get(CACHE_ENV) or flag_value
    if not path:
        return None
    cache = Path(path)
    try:
        cache.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise click.ClickException(
            f"cannot use cache directory {cache}: {exc.strerror or exc}"
        ) from None
    return cache


@functools.cache
def _source_digest() -> str:
    """SHA-256 of the package's ``*.py`` sources, read once per process."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(f"{path.name}\0{path.stat().st_size}\0".encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cache_key(config: dict) -> str:
    """The config's key, with the package version and a digest of its
    sources, so that a changed engine never replays a stale report."""
    blob = json.dumps(
        {"config": config, "version": __version__, "sources": _source_digest()},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_load(cache: Path | None, key: str) -> dict | None:
    """The cached report under ``key``; an entry that is missing or does
    not decode as a JSON object is a miss."""
    if cache is None:
        return None
    try:
        report = json.loads((cache / f"{key}.json").read_bytes())
    except (OSError, ValueError):
        return None
    return report if isinstance(report, dict) else None


def _cache_store(cache: Path | None, key: str, payload: bytes) -> None:
    """Write through a temporary file so a reader never sees a torn entry."""
    if cache is None:
        return
    tmp = cache / f".{key}.{os.getpid()}.tmp"
    tmp.write_bytes(payload)
    os.replace(tmp, cache / f"{key}.json")


def _payload(report: dict) -> bytes:
    return (json.dumps(report, indent=2) + "\n").encode()


def _render_table(report: dict, indent: str = "") -> str:
    """Aligned text rendering of a report dict (deterministic)."""
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            if value and all(isinstance(v, (int, float)) for v in value.values()):
                lines.append(f"{indent}{key}:")
                width = max(len(str(k)) for k in value)
                for k in value:
                    lines.append(f"{indent}  {str(k):<{width}}  {value[k]}")
            else:
                lines.append(f"{indent}{key}:")
                lines.append(_render_table(value, indent + "  "))
        elif isinstance(value, list):
            lines.append(f"{indent}{key}: {json.dumps(value)}")
        else:
            lines.append(f"{indent}{key}: {value}")
    return "\n".join(line for line in lines if line)


def _report(config: dict, build_report) -> dict:
    """Config, then the body from ``build_report()``, its ok flag and
    timing; ``build_report`` runs with the garbage collector paused."""
    started = time.perf_counter()
    body, ok = _without_gc(build_report)()
    return {
        **config,
        **body,
        "ok": ok,
        "timing": {"seconds": round(time.perf_counter() - started, 6)},
    }


def _emit(ctx, config: dict, build_report, fmt: str, cache: Path | None) -> None:
    """Compute (or fetch from ``cache``, a ``_cache_dir``) the report, print
    it, exit nonzero on failure.  A diagram over the size guards is refused
    with a one-line error."""
    key = _cache_key(config)
    report = _cache_load(cache, key)
    if report is None:
        try:
            report = _report(config, build_report)
        except DiagramTooLarge as exc:
            raise click.ClickException(str(exc)) from None
        _cache_store(cache, key, _payload(report))
    if fmt == "json":
        click.echo(_payload(report).decode(), nl=False)
    else:
        click.echo(_render_table(report))
    if not report.get("ok", False):
        ctx.exit(1)


def _config(command: str, **inputs) -> dict:
    return {"schema": SCHEMA_VERSION, "command": command, "input": inputs}


fmt_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "table"]), default="json",
    show_default=True, help="Output format.",
)
cache_option = click.option(
    "--cache-dir", default=None, help=f"Cache directory (env {CACHE_ENV} overrides)."
)
braid_option = click.option(
    "--braid", default="", help='Braid word, e.g. "1 1 -2".', show_default=True
)
strands_option = click.option(
    "--strands", required=True, type=int, help="Number of braid strands."
)


@click.group()
@click.version_option(version=__version__, prog_name="annulus-tate")
def main() -> None:
    """Annular Khovanov homology of 2-periodic links over F2."""


def _homology_command(name: str, theory: Theory, doc: str):
    @main.command(name, help=doc)
    @braid_option
    @strands_option
    @fmt_option
    @cache_option
    @click.pass_context
    def cmd(ctx, braid: str, strands: int, fmt: str, cache_dir: str | None):
        word = _load_word(braid, strands)
        config = _config(name, braid=word.as_text(), strands=strands)

        def build():
            table = homology(close_braid(word), theory)
            body = {
                "ranks": _rank_table_json(table),
                "total_rank": total_rank(table),
            }
            return body, True

        _emit(ctx, config, build, fmt, _cache_dir(cache_dir))

    return cmd


_homology_command("akh", Theory.AKH, "Annular Khovanov ranks per (i, j, k).")
_homology_command("kh", Theory.KH, "Khovanov ranks per (i, j) over F2.")


@main.command("resolve", help="Circles and seam parities of resolutions.")
@braid_option
@strands_option
@click.option("--alpha", default=None, help='Bitstring, crossing 0 first (e.g. "10").')
@fmt_option
@cache_option
@click.pass_context
def cmd_resolve(ctx, braid, strands, alpha, fmt, cache_dir):
    word = _load_word(braid, strands)
    config = _config("resolve", braid=word.as_text(), strands=strands, alpha=alpha)

    def build():
        diagram = close_braid(word)
        c = diagram.n_crossings
        if alpha is None and c > MAX_RESOLVE_LISTING:
            raise click.ClickException(
                f"{c} crossings: pass --alpha to pick one of the 2^{c} resolutions"
            )
        if alpha is not None:
            try:
                bits, width = parse_bits(alpha)
            except ValueError as exc:
                raise click.ClickException(str(exc)) from None
            if width != c:
                raise click.ClickException(
                    f"bitstring length {width} does not match {c} crossings"
                )
            vertices = [bits]
        else:
            vertices = range(1 << c)
        rows = []
        links = PortLinks(diagram)
        for v in vertices:
            res = resolve(diagram, v, links)
            rows.append(
                {
                    "alpha": format_bits(v, c),
                    "circles": res.n_circles,
                    "seam_counts": [circle.seam_count for circle in res.circles],
                    "trivial": [circle.trivial for circle in res.circles],
                }
            )
        return {"resolutions": rows}, True

    _emit(ctx, config, build, fmt, _cache_dir(cache_dir))


# the Tate checks of each --theory choice
PERIODIC_THEORIES = {
    "both": (Theory.AKH, Theory.KH),
    "akh": (Theory.AKH,),
    "kh": (Theory.KH,),
}


def _periodic_verdicts(run: PeriodicRun) -> list[Verdict]:
    verdicts: list[Verdict] = []
    if Theory.AKH in run.theories:
        verdicts += [
            run.equivariance[Theory.AKH],
            verify_e2_correspondence(run),
            verify_collapse(run, Theory.AKH),
            verify_diagonals(run),
            verify_rank_inequality(run),
        ]
    if Theory.KH in run.theories:
        verdicts += [
            run.equivariance[Theory.KH],
            verify_collapse(run, Theory.KH),
            verify_khtate_limit(run),
            verify_cascade(run),
        ]
    return verdicts + [verify_congruences(run)]


def _periodic_body(word: BraidWord, theory: str) -> tuple[dict, bool]:
    run = PeriodicRun(word, PERIODIC_THEORIES[theory])
    verdicts = _periodic_verdicts(run)
    body = {
        "proven_family": run.proven_family,
        "verdicts": [_verdict_json(v) for v in verdicts],
    }
    return body, not any(v.failed for v in verdicts)


@main.command("periodic", help="Verify the periodicity theorems for one quotient word.")
@braid_option
@strands_option
@click.option(
    "--theory", type=click.Choice(["both", "akh", "kh"]), default="both",
    show_default=True, help="Which Tate bicomplex checks to run.",
)
@fmt_option
@cache_option
@click.pass_context
def cmd_periodic(ctx, braid, strands, theory, fmt, cache_dir):
    word = _load_word(braid, strands)
    if len(word) > MAX_CORPUS_LENGTH:
        raise click.ClickException(
            f"quotient words are limited to {MAX_CORPUS_LENGTH} letters"
        )
    config = _config("periodic", braid=word.as_text(), strands=strands, theory=theory)
    _emit(ctx, config, lambda: _periodic_body(word, theory), fmt, _cache_dir(cache_dir))


@main.command("decat", help="State sum, homology polynomial, and mod-2 congruences.")
@braid_option
@strands_option
@fmt_option
@cache_option
@click.pass_context
def cmd_decat(ctx, braid, strands, fmt, cache_dir):
    word = _load_word(braid, strands)
    if len(word) > MAX_CORPUS_LENGTH:
        raise click.ClickException(
            f"quotient words are limited to {MAX_CORPUS_LENGTH} letters"
        )
    config = _config("decat", braid=word.as_text(), strands=strands)

    def build():
        quotient = homology(close_braid(word), Theory.AKH)
        cover = homology(double_cover(word), Theory.AKH)
        report = decat.check_congruences(quotient, cover)
        body = {
            "state_sum": decat.quadruples(decat.state_sum(close_braid(word))),
            "quotient_poly": decat.quadruples(quotient),
            "cover_poly": decat.quadruples(cover),
            "congruences": {
                "graded": report.graded_ok,
                "murasugi": report.murasugi_ok,
                "jones": report.jones_ok,
            },
        }
        return body, report.ok

    _emit(ctx, config, build, fmt, _cache_dir(cache_dir))


def iter_corpus_words(max_strands: int, max_length: int):
    """Corpus order: strands ascending, length ascending, letters
    lexicographic in the alphabet 1, -1, 2, -2, ..."""
    import itertools

    for m in range(1, max_strands + 1):
        alphabet = [g for a in range(1, m) for g in (a, -a)]
        for length in range(max_length + 1):
            if length and not alphabet:
                continue
            for letters in itertools.product(alphabet, repeat=length):
                yield BraidWord(m, letters)


def _corpus_config(braid: str, strands: int) -> dict:
    return _config("periodic", braid=braid, strands=strands, theory="both")


def _corpus_word_report(args: tuple[str, int]) -> dict:
    braid, strands = args
    word = parse_braid_word(braid, strands)
    return _report(_corpus_config(braid, strands), lambda: _periodic_body(word, "both"))


@main.command("corpus", help="Run the periodic verification over all small words.")
@click.option("--max-strands", type=int, default=3, show_default=True)
@click.option("--max-length", type=int, default=3, show_default=True)
@click.option(
    "--jobs", type=click.IntRange(min=1), default=None,
    help="Processes, engine included (default and cap: usable CPUs).",
)
@fmt_option
@cache_option
@click.pass_context
def cmd_corpus(ctx, max_strands, max_length, jobs, fmt, cache_dir):
    if max_length > MAX_CORPUS_LENGTH:
        raise click.ClickException(f"--max-length is capped at {MAX_CORPUS_LENGTH}")
    if max_strands > MAX_CORPUS_STRANDS:
        raise click.ClickException(f"--max-strands is capped at {MAX_CORPUS_STRANDS}")
    cpus = khovanov.cpu_count()
    jobs = min(jobs or cpus, cpus)
    config = _config("corpus", max_strands=max_strands, max_length=max_length)
    cache = _cache_dir(cache_dir)

    def build():
        words = list(iter_corpus_words(max_strands, max_length))
        tasks = [(w.as_text(), w.strands) for w in words]
        keys = [_cache_key(_corpus_config(*task)) for task in tasks]
        reports = [_cache_load(cache, key) for key in keys]
        pending = [idx for idx, rep in enumerate(reports) if rep is None]
        workers = min(jobs, len(pending))
        if workers > 1:
            # the workers share the CPUs already: each runs the engine inline
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=khovanov.limit_processes, initargs=(1,)
            ) as pool:
                fresh = list(pool.map(_corpus_word_report, [tasks[i] for i in pending]))
        else:
            previous = khovanov.limit_processes(jobs)
            try:
                fresh = [_corpus_word_report(tasks[i]) for i in pending]
            finally:
                khovanov.limit_processes(previous)
        for idx, rep in zip(pending, fresh):
            reports[idx] = rep
            _cache_store(cache, keys[idx], _payload(rep))
        summary = []
        failures = []
        for word, rep in zip(words, reports):
            entry = {
                "braid": word.as_text(),
                "strands": word.strands,
                "ok": rep.get("ok", False),
            }
            summary.append(entry)
            if not entry["ok"]:
                failures.append(
                    {
                        **entry,
                        "repro": f'annulus-tate periodic --braid "{word.as_text()}" '
                        f"--strands {word.strands}",
                    }
                )
        body = {
            "words": summary,
            "failures": failures,
            "counts": {
                "words": len(words),
                "passed": sum(1 for s in summary if s["ok"]),
                "failed": len(failures),
            },
        }
        return body, not failures

    _emit(ctx, config, build, fmt, cache)


if __name__ == "__main__":
    main()
