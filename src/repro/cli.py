"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``check FILE``            — type-check an FCL program (the prover).
* ``verify FILE``           — check, then independently verify the derivation.
* ``run FILE FN [ARGS...]`` — run a function single-threaded (int/bool args).
* ``derivation FILE FN``    — print the typing derivation of one function.
* ``stats FILE [FN]``       — check + verify + run with telemetry, print metrics.
* ``regions FILE FN [N]``   — run FN(N) and draw the dynamic region graph.
* ``table1``                — regenerate the Table 1 comparison matrix.
* ``corpus``                — list, check, and verify the bundled corpus.
* ``batch PATH...``         — check + verify every program under the given
  files/directories through the incremental pipeline.
* ``fuzz``                  — differential soundness fuzzing: generate
  random programs and cross-check checker/verifier/runtime/erasure
  (``--json`` emits the ``repro-fuzz/1`` report; see docs/FUZZING.md).
* ``serve``                 — long-running JSON-lines daemon answering
  check/verify/run/batch against warm session state (``repro-rpc/1``
  over TCP and/or a unix socket; see docs/API.md).  Event tracing is on
  by default (``--trace-buffer 0`` disables).
* ``client ACTION``         — drive a running daemon (``ping``, ``check``,
  ``verify``, ``run``, ``corpus``, ``batch``, ``stats``, ``metrics``,
  ``trace``, ``shutdown``).  ``--prom`` renders ``metrics`` as Prometheus
  text; ``--trace-json FILE`` runs the action under client-side tracing
  and writes the stitched client+server Chrome trace.
* ``trace FILE [FN]``       — check + verify + run one program under
  event tracing and write Chrome trace-event JSON (Perfetto-loadable;
  see docs/OBSERVABILITY.md).
* ``top``                   — live terminal dashboard for a running
  daemon: request rates, per-method p50/p99, memo hit ratio, queue depth.

Exit codes follow :class:`repro.api.ExitCode`: 0 success, 1 check
rejection, 2 verification failure, 3 runtime error,
4 paranoid divergence, 5 fuzz violation, 64 usage error.

``check``/``run``/``verify``/``stats`` all accept ``--metrics-json FILE``
to dump the telemetry registry as structured JSON (schema
``repro-telemetry/2``; see docs/OBSERVABILITY.md), and ``run`` accepts
``--trace-json FILE`` to export the heap-event trace as JSON lines.

``FILE`` is normally FCL source; a ``.py`` file works too if it embeds its
program in a module-level ``SOURCE = \"\"\"...\"\"\"`` literal (the style of
``examples/``), so ``repro stats examples/quickstart.py`` just works.

``check``/``verify``/``corpus``/``batch`` run through the one
check/verify path, :meth:`repro.pipeline.Pipeline.run`, as do
``stats`` and a checked ``run`` (through the facade).  The first four
accept ``--cache DIR`` (persistent content-addressed certificate cache)
and ``--trust-cache`` (skip re-verifying cached certificates; integrity
comes from the content hash).  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import api
from .api import Diagnostic, ExitCode
from .core.checker import Checker
from .core.errors import TypeError_
from .lang import ParseError, parse_program
from .lang.lexer import LexError
from .runtime.heap import Heap
from .runtime.machine import run_function
from .runtime.values import Loc
from .verifier import VerificationError, Verifier


class Parser(argparse.ArgumentParser):
    """argparse, but usage errors exit with ``ExitCode.USAGE`` (64) like
    every other repro usage failure instead of argparse's default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(int(ExitCode.USAGE), f"{self.prog}: error: {message}\n")


_SOURCES: dict = {}

#: Diagnostics reported during this invocation, in order.  ``main``
#: exports them as the ``failures`` array of ``--metrics-json``
#: documents so machine consumers get structured records, not stderr.
_FAILURES: List[Diagnostic] = []


def _fail(diag: Diagnostic, source: str = "") -> None:
    """Report one diagnostic: render to stderr, record for metrics."""
    _FAILURES.append(diag)
    print(diag.render(source), file=sys.stderr)


def _positive(kind):
    """The argparse ``type=`` of every limit flag: a ``kind`` number above
    zero.  A limit of zero or less would refuse all work, so it is a
    usage error that names the flag."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be above 0, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse's "invalid int value: ..."
    return parse


def _usage(message: str) -> SystemExit:
    """A usage error: message on stderr, exit ``ExitCode.USAGE`` (64)."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(int(ExitCode.USAGE))


def _extract_embedded_source(path: str, text: str) -> str:
    """FCL source embedded in a Python example: the module-level
    ``SOURCE = \"\"\"...\"\"\"`` string literal."""
    import ast as pyast

    try:
        tree = pyast.parse(text)
    except SyntaxError as exc:
        raise _usage(f"{path}: not valid Python: {exc}")
    for node in tree.body:
        if not isinstance(node, pyast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, pyast.Name)
                and target.id == "SOURCE"
                and isinstance(node.value, pyast.Constant)
                and isinstance(node.value.value, str)
            ):
                return node.value.value
    raise _usage(f"{path}: no module-level SOURCE string literal found")


def _read_source(path: str) -> str:
    """Read program text (extracting an embedded ``SOURCE`` literal from
    ``.py`` files) and remember it for diagnostic rendering."""
    try:
        source = Path(path).read_text()
    except OSError as exc:
        raise _usage(f"cannot read {path}: {exc}")
    if path.endswith(".py"):
        source = _extract_embedded_source(path, source)
    _SOURCES[path] = source
    return source


def _load(path: str):
    """Parse ``path`` for the commands that need the program itself; a
    program that does not lex or parse is reported and exits 1."""
    source = _read_source(path)
    try:
        return parse_program(source)
    except (ParseError, LexError, RecursionError) as exc:
        from .pipeline import ErrorInfo

        _fail(ErrorInfo.from_exception(exc).to_diagnostic(path), source)
    raise SystemExit(int(ExitCode.CHECK_REJECT))


def _make_pipeline(args: argparse.Namespace, verify: bool = True):
    from .pipeline import Pipeline

    if args.trust_cache and not args.cache:
        raise _usage("--trust-cache requires --cache DIR")
    return Pipeline(
        cache_dir=args.cache, trust_cache=args.trust_cache, verify=verify
    )


def _report(result, path: str, source: str) -> int:
    """Print one check or verify verdict — its summary line, or its
    diagnostics on stderr — and return its exit code.  The local and
    ``client`` forms of ``check``, ``verify`` and ``corpus`` share it."""
    if not result.ok:
        for diag in result.diagnostics:
            _fail(diag, source)
        return int(result.exit_code)
    print(result.summary(path))
    return int(ExitCode.OK)


def _corpus(verify_one) -> int:
    """``repro corpus`` and ``repro client corpus``: one line per corpus
    program, from ``verify_one(source, name)``'s :class:`VerifyResult`."""
    from .corpus import corpus_names, load_source

    for name in corpus_names():
        source = load_source(name)
        result = verify_one(source, name)
        if not result.ok:
            return _report(result, name, source)
        print(
            f"{name:8s} {result.functions:3d} functions  "
            f"checked + verified ({result.verified} nodes)"
        )
    return int(ExitCode.OK)


def _verdict(args: argparse.Namespace, verify: bool) -> int:
    program = _load(args.file)
    source = _SOURCES[args.file]
    with _make_pipeline(args, verify=verify) as pipeline:
        result = api.verdict(
            pipeline, source, filename=args.file, program=program
        )
    return _report(result, args.file, source)


def cmd_check(args: argparse.Namespace) -> int:
    return _verdict(args, verify=False)


def cmd_verify(args: argparse.Namespace) -> int:
    return _verdict(args, verify=True)


def _parse_args(raw: List[str]):
    values = []
    for text in raw:
        if text == "true":
            values.append(True)
        elif text == "false":
            values.append(False)
        else:
            try:
                values.append(int(text))
            except ValueError:
                raise _usage(
                    f"arguments must be ints or true/false, got {text!r}"
                )
    return values


def cmd_run(args: argparse.Namespace) -> int:
    program = _load(args.file)
    if args.unchecked and (args.erased or args.paranoid):
        print(
            "error: --erased/--paranoid require the type checker "
            "(they rely on the §3.2 erasability of verified programs); "
            "drop --unchecked",
            file=sys.stderr,
        )
        return int(ExitCode.USAGE)
    if args.paranoid and (args.erased or args.no_reservation_checks):
        print(
            "error: --paranoid runs both guard modes itself; drop "
            "--erased/--no-reservation-checks",
            file=sys.stderr,
        )
        return int(ExitCode.USAGE)
    if not args.unchecked:
        source = _SOURCES[args.file]
        checked = api.check(source, filename=args.file, program=program)
        if not checked.ok:
            return _report(checked, args.file, source)
    tracer = None
    if args.trace or args.trace_json or args.paranoid:
        from .runtime.trace import Tracer

        tracer = Tracer()
        if args.seed is not None:
            tracer.metadata["seed"] = args.seed
    heap = Heap(tracer=tracer)
    # Verified-erasure fast path: the program type-checked, so the
    # reservation guards are compiled out at interpreter construction.
    check_reservations = not (args.no_reservation_checks or args.erased)
    try:
        result, interp = run_function(
            program,
            args.function,
            _parse_args(args.args),
            heap=heap,
            check_reservations=check_reservations,
            max_steps=args.max_steps,
            seed=args.seed,
            engine=args.engine,
        )
    except Exception as exc:  # surfaced verbatim: runtime failures matter
        _FAILURES.append(Diagnostic.from_exception(exc, file=args.file))
        print(f"runtime error: {exc}", file=sys.stderr)
        return int(ExitCode.RUNTIME_ERROR)
    if args.paranoid:
        # Cross-validate §3.2: re-run with guards erased on a fresh heap and
        # demand the observable trace (and result) are identical.
        from .runtime.trace import Tracer

        tracer2 = Tracer()
        heap2 = Heap(tracer=tracer2)
        try:
            result2, _ = run_function(
                program,
                args.function,
                _parse_args(args.args),
                heap=heap2,
                check_reservations=False,
                max_steps=args.max_steps,
                seed=args.seed,
                engine=args.engine,
            )
        except Exception as exc:
            print(f"paranoid: erased run failed: {exc}", file=sys.stderr)
            return int(ExitCode.DIVERGENCE)
        if tracer.to_dicts() != tracer2.to_dicts() or api.render_value(
            result, heap
        ) != api.render_value(result2, heap2):
            print(
                "paranoid: DIVERGENCE — erased run's observable trace "
                "differs from the guarded run",
                file=sys.stderr,
            )
            return int(ExitCode.DIVERGENCE)
        if args.engine == "ir":
            # Cross-engine leg: the bytecode run must also match a fresh
            # guarded tree-interpreter run byte for byte.
            tracer3 = Tracer()
            heap3 = Heap(tracer=tracer3)
            try:
                result3, _ = run_function(
                    program,
                    args.function,
                    _parse_args(args.args),
                    heap=heap3,
                    check_reservations=check_reservations,
                    max_steps=args.max_steps,
                    seed=args.seed,
                    engine="tree",
                )
            except Exception as exc:
                print(f"paranoid: tree run failed: {exc}", file=sys.stderr)
                return int(ExitCode.DIVERGENCE)
            if tracer.to_dicts() != tracer3.to_dicts() or api.render_value(
                result, heap
            ) != api.render_value(result3, heap3):
                print(
                    "paranoid: DIVERGENCE — ir engine's observable trace "
                    "differs from the tree interpreter",
                    file=sys.stderr,
                )
                return int(ExitCode.DIVERGENCE)
            print(
                "paranoid: ir and tree traces identical",
                file=sys.stderr,
            )
        print(
            f"paranoid: guarded and erased traces identical "
            f"({len(tracer)} events, "
            f"{interp.stats.reservation_checks} checks validated)",
            file=sys.stderr,
        )
    print(api.render_value(result, heap))
    if args.trace_json:
        import json

        try:
            with open(args.trace_json, "w") as fh:
                # Reproduction metadata (e.g. --seed) rides along as one
                # leading {"meta": ...} line; absent when there is none,
                # so metadata-free exports are byte-stable across versions.
                if tracer.metadata:
                    fh.write(json.dumps({"meta": tracer.metadata}) + "\n")
                for event in tracer.to_dicts():
                    fh.write(json.dumps(event) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.trace_json}: {exc}", file=sys.stderr)
            return 1
        print(
            f"wrote {len(tracer)} trace events to {args.trace_json}"
            + (f" ({tracer.dropped} dropped)" if tracer.dropped else ""),
            file=sys.stderr,
        )
    if args.trace:
        print(tracer.render(last=args.trace), file=sys.stderr)
    if args.stats:
        print(
            f"steps={interp.stats.steps} heap_reads={heap.reads} "
            f"heap_writes={heap.writes} objects={len(heap)}",
            file=sys.stderr,
        )
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    """Dump the linear bytecode (and the optimizer's per-pass counter
    deltas) for one program, optionally restricted to one function."""
    from .ir.disasm import disassemble

    program = _load(args.file)
    source = _SOURCES[args.file]
    result = api.check(source, filename=args.file, program=program)
    if not result.ok:
        for diag in result.diagnostics:
            _fail(diag, source)
        return int(result.exit_code)
    try:
        text = disassemble(
            program,
            checked=not args.erased,
            observable=args.traced,
            optimize=not args.no_opt,
            function=args.function,
        )
    except KeyError:
        print(f"error: no function {args.function!r}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


def cmd_derivation(args: argparse.Namespace) -> int:
    program = _load(args.file)
    try:
        derivation = Checker(program).check_program()
    except TypeError_ as exc:
        print(f"{args.file}: type error: {exc}", file=sys.stderr)
        return 1
    if args.function not in derivation.funcs:
        print(f"error: no function {args.function!r}", file=sys.stderr)
        return 1
    print(derivation.funcs[args.function].body.render())
    return 0


def _pick_entry(program) -> Optional[str]:
    """The function ``repro stats`` runs when none is named: ``main`` or
    ``demo`` if present, else the first zero-parameter function."""
    for name in ("main", "demo"):
        if name in program.funcs and not program.funcs[name].params:
            return name
    for name, fdef in program.funcs.items():
        if not fdef.params:
            return name
    return None


def cmd_stats(args: argparse.Namespace) -> int:
    """Check + verify + run one program with telemetry on; print the
    metrics table (and export JSON via the shared --metrics-json flag)."""
    from . import telemetry

    source = _read_source(args.file)
    session = api.Session(source, filename=args.file)
    verified = session.verify()
    if not verified.ok:
        return _report(verified, args.file, source)
    fname = args.function or _pick_entry(session.program)
    ran = ""
    if fname is not None:
        if fname not in session.program.funcs:
            print(f"error: no function {fname!r}", file=sys.stderr)
            return 1
        result = session.run(fname, _parse_args(args.args), check_first=False)
        if not result.ok:
            message = result.diagnostics[0].message
            print(f"runtime error in {fname}: {message}", file=sys.stderr)
            return 3
        ran = f"; ran {fname}()"
    print(
        f"{args.file}: checked + verified "
        f"({verified.verified} derivation nodes){ran}"
    )
    print()
    print(telemetry.render_table(telemetry.registry()))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Check + verify + (optionally) run one program under event-level
    tracing; write the Chrome trace-event JSON document.  The registry is
    enabled too, so checker/verifier/machine spans ride into the trace
    through the registry→tracer bridge."""
    import json

    from . import telemetry

    program = _load(args.file)
    source = _SOURCES[args.file]
    telemetry.enable()
    tr = telemetry.enable_tracing(capacity=args.buffer)
    try:
        result = api.check(source, filename=args.file, program=program)
        if not result.ok:
            for diag in result.diagnostics:
                _fail(diag, source)
            return int(result.exit_code)
        vresult = api.verify(source, filename=args.file, program=program)
        if not vresult.ok:
            for diag in vresult.diagnostics:
                _fail(diag, source)
            return int(vresult.exit_code)
        ran = ""
        fname = args.function or _pick_entry(program)
        if fname is not None:
            if fname not in program.funcs:
                print(f"error: no function {fname!r}", file=sys.stderr)
                return 1
            rresult = api.run(
                source,
                fname,
                _parse_args(args.args),
                filename=args.file,
                program=program,
                check_first=False,
            )
            if not rresult.ok:
                for diag in rresult.diagnostics:
                    _fail(diag, source)
                return int(rresult.exit_code)
            ran = f"; ran {fname}()"
    finally:
        telemetry.disable_tracing()
        telemetry.disable()
    doc = telemetry.to_chrome(tr)
    try:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    print(f"{args.file}: checked + verified{ran}")
    print(
        f"wrote {len(doc['traceEvents'])} trace events to {args.out}"
        + (f" ({tr.dropped} dropped)" if tr.dropped else "")
    )
    return int(ExitCode.OK)


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard over the daemon's stats + metrics RPCs."""
    from .top import run_top

    return run_top(
        args.connect,
        interval=args.interval,
        once=args.once,
        iterations=args.iterations,
    )


def cmd_prove(args: argparse.Namespace) -> int:
    """Emit a JSON derivation certificate (the prover half of §5)."""
    from .core.serialize import program_derivation_to_json

    program = _load(args.file)
    try:
        derivation = Checker(program).check_program()
    except TypeError_ as exc:
        print(f"{args.file}: type error: {exc}", file=sys.stderr)
        return 1
    text = program_derivation_to_json(derivation, indent=1)
    if args.out == "-":
        print(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote certificate to {args.out}")
    return 0


def cmd_verify_cert(args: argparse.Namespace) -> int:
    """Verify a JSON certificate against a program (the verifier half)."""
    from .core.serialize import program_derivation_from_json

    program = _load(args.file)
    try:
        derivation = program_derivation_from_json(Path(args.cert).read_text())
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load certificate {args.cert}: {exc}", file=sys.stderr)
        return 2
    try:
        nodes = Verifier(program).verify_program(derivation)
    except VerificationError as exc:
        print(f"CERTIFICATE REJECTED: {exc}", file=sys.stderr)
        return 2
    print(f"certificate verified ({nodes} nodes)")
    return 0


def cmd_regions(args: argparse.Namespace) -> int:
    from .analysis import build_region_graph, to_dot

    program = _load(args.file)
    heap = Heap()
    call_args = _parse_args(args.args)
    result, _ = run_function(program, args.function, call_args, heap=heap)
    roots = [result] if isinstance(result, Loc) else list(heap.locations())
    graph = build_region_graph(heap, roots)
    if args.dot:
        print(to_dot(graph, heap))
        return 0
    print(f"{len(graph.regions)} dynamic regions, {len(graph.edges)} iso edges")
    for index, region in enumerate(graph.regions):
        members = ", ".join(str(loc) for loc in sorted(region))
        print(f"  region {index}: {{{members}}}")
    for owner_region, owner, fieldname, target in graph.edges:
        print(f"  region {owner_region} --{owner}.{fieldname}--> region {target}")
    print(f"region graph is a tree: {graph.is_tree()}")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential soundness fuzzing (see docs/FUZZING.md).  Exit code 0
    means the campaign matched expectations: no violations normally, at
    least one caught violation under ``--inject-bug``.  Exit code 5 means
    the opposite — a real soundness finding, or an injected bug the
    oracles failed to catch."""
    import json

    from .fuzz import FuzzConfig, run_campaign

    config = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        schedules=args.schedules,
        enumerate_limit=args.enumerate_limit,
        shrink=not args.no_shrink,
        stop_after=args.stop_after,
        inject_bug=args.inject_bug,
        jobs=args.jobs,
    )
    try:
        report = run_campaign(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return int(ExitCode.USAGE)
    cases = report["cases"]
    violations = report["violations"]
    print(
        f"fuzz: seed={report['seed']} budget={report['budget']} "
        f"generated={cases['generated']} accepted={cases['accepted']} "
        f"rejected={cases['rejected']} mutants={cases['mutants']} "
        f"(benign {cases['mutants_benign']}) "
        f"schedules={report['schedules']['random']}+"
        f"{report['schedules']['enumerated']} "
        f"engines={'+'.join(report['engines'])} "
        f"violations={len(violations)} [{report['wall_ms']} ms]"
    )
    coverage = " ".join(
        f"{rule}={count}" for rule, count in report["coverage"].items()
    )
    print(f"  vt coverage: {coverage}")
    for violation in violations:
        tag = f" via {violation['mutation']}" if violation["mutation"] else ""
        print(
            f"  VIOLATION [{violation['oracle']}] case "
            f"{violation['case']}{tag}: {violation['detail']}"
        )
        shrunk = violation["shrunk"]
        if shrunk is not None:
            print(
                f"    shrunk to {shrunk['nodes']} AST nodes "
                f"({shrunk['evals']} predicate runs)"
            )
    if args.json:
        try:
            Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote fuzz report to {args.json}", file=sys.stderr)
    if args.inject_bug:
        if violations:
            print(
                f"injected bug {args.inject_bug!r} caught by the "
                f"{violations[0]['oracle']} oracle"
            )
            return 0
        print(
            f"injected bug {args.inject_bug!r} ESCAPED every oracle",
            file=sys.stderr,
        )
        return int(ExitCode.FUZZ_VIOLATION)
    return int(ExitCode.FUZZ_VIOLATION if violations else ExitCode.OK)


def cmd_table1(_args: argparse.Namespace) -> int:
    from .baselines import render_table

    print(render_table())
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    with _make_pipeline(args) as pipeline:
        return _corpus(
            lambda source, name: api.verdict(pipeline, source, filename=name)
        )


def cmd_batch(args: argparse.Namespace) -> int:
    from .pipeline import discover, run_batch

    try:
        programs = discover(args.paths)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return int(ExitCode.USAGE)
    if not programs:
        print("error: no programs found", file=sys.stderr)
        return int(ExitCode.USAGE)
    with _make_pipeline(args) as pipeline:
        return run_batch(programs, pipeline)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived ``repro-rpc/1`` daemon (see docs/API.md)."""
    import asyncio

    from . import telemetry
    from .client import ClientError, parse_address
    from .server import Server, ServerConfig, Service

    if args.trust_cache and not args.cache:
        raise _usage("--trust-cache requires --cache DIR")
    if (args.cache_entries or args.cache_bytes) and not args.cache:
        raise _usage("--cache-entries/--cache-bytes require --cache DIR")
    if args.workers < 0:
        raise _usage("--workers wants a non-negative count")
    host: Optional[str] = None
    port = 0
    if args.tcp:
        try:
            spec = parse_address(args.tcp)
        except ClientError as exc:
            raise _usage(str(exc))
        if not isinstance(spec, tuple):
            raise _usage("--tcp wants HOST:PORT (use --unix for sockets)")
        host, port = spec
    elif not args.unix:
        host, port = "127.0.0.1", 7621  # default listen address
    http_host: Optional[str] = None
    http_port = 0
    if args.http:
        try:
            http_spec = parse_address(args.http)
        except ClientError as exc:
            raise _usage(str(exc))
        if not isinstance(http_spec, tuple):
            raise _usage("--http wants HOST:PORT")
        http_host, http_port = http_spec
    telemetry.enable()
    if args.trace_buffer > 0:
        # Event tracing rides in a bounded ring buffer (constant memory
        # forever); exported through the `trace` RPC.
        telemetry.enable_tracing(
            capacity=args.trace_buffer, sample=args.trace_sample
        )
    from .server.protocol import (
        DEFAULT_MAX_QUEUE,
        DEFAULT_MAX_STEPS,
        DEFAULT_TIMEOUT_S,
        MAX_FRAME_BYTES,
    )

    config = ServerConfig(
        host=host,
        port=port,
        unix_path=args.unix,
        max_queue=(
            args.max_queue if args.max_queue is not None else DEFAULT_MAX_QUEUE
        ),
        timeout_s=(
            args.timeout if args.timeout is not None else DEFAULT_TIMEOUT_S
        ),
        max_frame=(
            args.max_frame if args.max_frame is not None else MAX_FRAME_BYTES
        ),
        workers=args.threads,
        http_host=http_host,
        http_port=http_port,
    )
    max_steps = (
        args.max_steps if args.max_steps is not None else DEFAULT_MAX_STEPS
    )
    if args.workers > 0:
        from .server.fleet import FleetConfig, FleetServer

        server: Server = FleetServer(
            fleet_config=FleetConfig(
                workers=args.workers,
                cache_dir=args.cache,
                trust_cache=args.trust_cache,
                cache_entries=args.cache_entries,
                cache_bytes=args.cache_bytes,
                max_steps=max_steps,
            ),
            config=config,
        )
    else:
        service = Service(
            cache_dir=args.cache,
            trust_cache=args.trust_cache,
            max_steps=max_steps,
            cache_entries=args.cache_entries,
            cache_bytes=args.cache_bytes,
        )
        server = Server(service=service, config=config)

    async def _serve() -> None:
        await server.start()
        listening = []
        if server.tcp_address is not None:
            listening.append(f"tcp {server.tcp_address[0]}:{server.tcp_address[1]}")
        if server.unix_path is not None:
            listening.append(f"unix {server.unix_path}")
        if server.http_address is not None:
            listening.append(
                f"http {server.http_address[0]}:{server.http_address[1]}"
            )
        mode = (
            f"{args.workers} worker processes"
            if args.workers > 0
            else f"{args.threads} threads"
        )
        print(
            f"repro serve: listening on {', '.join(listening)} ({mode})",
            file=sys.stderr,
        )
        sys.stderr.flush()
        await server.serve_forever(install_signals=True)

    asyncio.run(_serve())
    print("repro serve: drained, exiting", file=sys.stderr)
    return int(ExitCode.OK)


def _client_run(client, args: argparse.Namespace) -> int:
    if not args.rest:
        raise _usage("client run wants FILE FUNCTION [ARGS...]")
    path, function, *raw = args.rest
    source = _read_source(path)
    result = client.run(
        source,
        function,
        _parse_args(raw),
        filename=path,
        max_steps=args.max_steps,
        engine=args.engine,
    )
    if args.engine is None:
        # The server chose: say what actually ran (stdout stays parity-
        # clean with a local `repro run`).
        print(f"engine: {result.engine} (server default)", file=sys.stderr)
    if not result.ok:
        for diag in result.diagnostics:
            _fail(diag, source)
        return int(result.exit_code)
    print(result.value)
    return int(ExitCode.OK)


def _client_batch(client, paths: List[str]) -> int:
    from .api import VerifyResult
    from .pipeline import discover

    try:
        programs = discover(paths)
    except (OSError, ValueError) as exc:
        raise _usage(str(exc))
    if not programs:
        raise _usage("no programs found")
    reply = client.batch([(path, source) for path, source in programs])
    worst = ExitCode.OK
    ok_count = 0
    for entry in reply["programs"]:
        result = VerifyResult.from_dict(entry["result"])
        label = entry["label"]
        if result.ok:
            ok_count += 1
            print(result.summary(label))
        else:
            for diag in result.diagnostics:
                _fail(diag)
            worst = max(worst, result.exit_code)
    print(f"batch: {ok_count}/{len(reply['programs'])} programs OK")
    return int(worst)


def _client_metrics(client, prom: bool) -> int:
    import json

    from . import telemetry

    doc = client.metrics()
    if prom:
        print(telemetry.render_prometheus(telemetry.doc_to_registry(doc)), end="")
    else:
        print(json.dumps(doc, indent=1, sort_keys=True))
    return int(ExitCode.OK)


def _client_trace(client, rest: List[str]) -> int:
    """Fetch the server's trace ring buffer as a Chrome trace document
    (to stdout, or to ``rest[0]`` when given)."""
    import json

    from . import telemetry

    tdoc = client.trace_doc()
    tr = telemetry.Tracer(capacity=max(len(tdoc.get("events", [])), 1))
    tr.ingest(tdoc.get("events", []))
    tr.dropped = int(tdoc.get("dropped", 0))
    doc = telemetry.to_chrome(tr)
    if rest:
        try:
            Path(rest[0]).write_text(json.dumps(doc, indent=1) + "\n")
        except OSError as exc:
            print(f"error: cannot write {rest[0]}: {exc}", file=sys.stderr)
            return 1
        print(
            f"wrote {len(doc['traceEvents'])} trace events to {rest[0]}",
            file=sys.stderr,
        )
    else:
        print(json.dumps(doc, indent=1))
    if not tdoc.get("enabled", False):
        print(
            "note: server tracing is disabled (serve --trace-buffer 0)",
            file=sys.stderr,
        )
    return int(ExitCode.OK)


def _stitched_trace(client, tracer, path: str) -> None:
    """Pull the server's events into the client tracer and write the
    combined (cross-process) Chrome trace document."""
    import json

    from . import telemetry

    try:
        tdoc = client.trace_doc()
        tracer.ingest(tdoc.get("events", []))
    except Exception as exc:  # observability must not fail the action
        print(f"warning: could not fetch server trace: {exc}", file=sys.stderr)
    doc = telemetry.to_chrome(tracer)
    try:
        Path(path).write_text(json.dumps(doc, indent=1) + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return
    print(
        f"wrote {len(doc['traceEvents'])} stitched trace events to {path}",
        file=sys.stderr,
    )


def _client_dispatch(client, args: argparse.Namespace) -> int:
    import json

    if args.action == "ping":
        print(json.dumps(client.ping(), sort_keys=True))
        return int(ExitCode.OK)
    if args.action in ("check", "verify"):
        if len(args.rest) != 1:
            raise _usage(f"client {args.action} wants exactly one FILE")
        path = args.rest[0]
        source = _read_source(path)
        ask = client.check if args.action == "check" else client.verify
        return _report(ask(source, filename=path), path, source)
    if args.action == "run":
        return _client_run(client, args)
    if args.action == "corpus":
        return _corpus(lambda source, name: client.verify(source, filename=name))
    if args.action == "batch":
        if not args.rest:
            raise _usage("client batch wants PATH...")
        return _client_batch(client, args.rest)
    if args.action == "stats":
        print(json.dumps(client.stats(), indent=1, sort_keys=True))
        return int(ExitCode.OK)
    if args.action == "metrics":
        return _client_metrics(client, args.prom)
    if args.action == "trace":
        return _client_trace(client, args.rest)
    if args.action == "shutdown":
        client.shutdown()
        print("server draining", file=sys.stderr)
        return int(ExitCode.OK)
    raise _usage(f"unknown client action {args.action!r}")


def cmd_client(args: argparse.Namespace) -> int:
    """Drive a running ``repro serve`` daemon over ``repro-rpc/1``."""
    from .client import Client, ClientError, RemoteError

    local_tr = None
    if args.trace_json:
        from . import telemetry

        # Client-side tracing: every RPC round trip becomes an
        # `rpc.<method>` span whose context the daemon parents its own
        # request span under; afterwards the server's events are pulled
        # back and the stitched cross-process trace written to FILE.
        local_tr = telemetry.enable_tracing()
    try:
        with Client(args.connect, timeout=args.timeout) as client:
            code = _client_dispatch(client, args)
            if local_tr is not None:
                _stitched_trace(client, local_tr, args.trace_json)
            return code
    except RemoteError as exc:
        print(f"error: server rejected request: {exc}", file=sys.stderr)
        return int(ExitCode.RUNTIME_ERROR)
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return int(ExitCode.RUNTIME_ERROR)
    finally:
        if local_tr is not None:
            from . import telemetry

            telemetry.disable_tracing()


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="repro",
        description="Fearless-concurrency language tools (PLDI 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def metrics_flag(p):
        p.add_argument(
            "--metrics-json",
            metavar="FILE",
            default=None,
            help="enable telemetry and write the registry as JSON to FILE",
        )

    def pipeline_flags(p):
        p.add_argument(
            "--cache",
            metavar="DIR",
            default=None,
            help="content-addressed certificate cache directory "
            "(created on demand; safe to share between runs)",
        )
        p.add_argument(
            "--trust-cache",
            action="store_true",
            help="skip re-verifying cached certificates (their content "
            "hash already pins every input they were verified against)",
        )

    p = sub.add_parser("check", help="type-check an FCL program")
    p.add_argument("file")
    metrics_flag(p)
    pipeline_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify", help="check and independently verify")
    p.add_argument("file")
    metrics_flag(p)
    pipeline_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="run a function single-threaded")
    p.add_argument("file")
    p.add_argument("function")
    p.add_argument("args", nargs="*")
    p.add_argument("--stats", action="store_true", help="print execution stats")
    p.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=25,
        default=None,
        metavar="N",
        help="print the last N heap events (default 25)",
    )
    p.add_argument(
        "--unchecked",
        action="store_true",
        help="skip the type checker (reservation checks will protect you)",
    )
    p.add_argument(
        "--no-reservation-checks",
        action="store_true",
        help="also erase the dynamic reservation checks",
    )
    p.add_argument(
        "--erased",
        action="store_true",
        help="verified-erasure fast path: compile the reservation guards "
        "out (§3.2; requires the type checker, so not with --unchecked)",
    )
    p.add_argument(
        "--paranoid",
        action="store_true",
        help="run guarded AND erased, cross-validating that erasure never "
        "changes the observable trace",
    )
    p.add_argument(
        "--trace-json",
        metavar="FILE",
        default=None,
        help="write the heap-event trace as JSON lines to FILE",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="scheduler seed recorded in trace/metrics metadata so a run "
        "can be reproduced exactly (single-threaded runs are "
        "deterministic regardless)",
    )
    p.add_argument(
        "--max-steps",
        type=_positive(int),
        default=None,
        metavar="N",
        help="abort with a runtime error after N interpreter steps "
        "(the step budget `repro serve` applies to every run request)",
    )
    p.add_argument(
        "--engine",
        choices=("tree", "ir"),
        default="tree",
        help="execution engine: the tree-walking interpreter (default) "
        "or the optimizing bytecode compiler (--engine ir)",
    )
    metrics_flag(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "disasm",
        help="dump the compiled bytecode and per-pass optimizer deltas",
    )
    p.add_argument("file")
    p.add_argument("function", nargs="?", default=None)
    p.add_argument(
        "--erased",
        action="store_true",
        help="compile the erased full tier (default: the checked tier)",
    )
    p.add_argument(
        "--traced",
        action="store_true",
        help="compile the observable forms a tracer-attached run uses",
    )
    p.add_argument(
        "--no-opt",
        action="store_true",
        help="stop after lowering: the unoptimized baseline to diff against",
    )
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("derivation", help="print a typing derivation")
    p.add_argument("file")
    p.add_argument("function")
    p.set_defaults(func=cmd_derivation)

    p = sub.add_parser(
        "stats", help="check + verify + run with telemetry, print metrics"
    )
    p.add_argument("file")
    p.add_argument(
        "function",
        nargs="?",
        default=None,
        help="entry function to run (default: main/demo/first zero-arg)",
    )
    p.add_argument("args", nargs="*")
    metrics_flag(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "trace",
        help="check + verify + run under event tracing; write Chrome "
        "trace-event JSON (Perfetto-loadable)",
    )
    p.add_argument("file")
    p.add_argument(
        "function",
        nargs="?",
        default=None,
        help="entry function to run (default: main/demo/first zero-arg)",
    )
    p.add_argument("args", nargs="*")
    p.add_argument(
        "--out",
        metavar="FILE",
        default="trace.json",
        help="output path for the trace document (default trace.json)",
    )
    p.add_argument(
        "--buffer",
        type=int,
        default=8192,
        metavar="N",
        help="event ring-buffer capacity (default 8192)",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "top",
        help="live terminal dashboard for a running daemon "
        "(request rates, p50/p99 latency, memo hits, queue depth)",
    )
    p.add_argument(
        "--connect",
        metavar="ADDR",
        default="127.0.0.1:7621",
        help="server address: HOST:PORT or unix:PATH "
        "(default 127.0.0.1:7621)",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="poll interval (default 2)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="exit after N frames (default: until interrupted)",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("prove", help="emit a JSON derivation certificate")
    p.add_argument("file")
    p.add_argument("--out", default="-", help="output path (default stdout)")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser(
        "verify-cert", help="verify a JSON certificate against a program"
    )
    p.add_argument("file")
    p.add_argument("cert")
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("regions", help="run and draw the dynamic region graph")
    p.add_argument("file")
    p.add_argument("function")
    p.add_argument("args", nargs="*")
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser(
        "fuzz", help="differential soundness fuzzing (docs/FUZZING.md)"
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    p.add_argument(
        "--budget", type=int, default=200, help="base cases to generate"
    )
    p.add_argument(
        "--schedules",
        type=int,
        default=4,
        help="random schedules per accepted case",
    )
    p.add_argument(
        "--enumerate-limit",
        type=int,
        default=120,
        help="bounded-exhaustive schedule cap per case (<= 3 threads)",
    )
    p.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the repro-fuzz/1 report to FILE",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw failing programs without minimizing them",
    )
    p.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="N",
        help="stop after N violations instead of exhausting the budget",
    )
    p.add_argument(
        "--inject-bug",
        metavar="NAME",
        default=None,
        help="self-test: doctor the checker with a named unsoundness "
        "(e.g. send-keeps-region) and demand the oracles catch it",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run the checker/verifier oracle in N worker processes "
        "(fixed-seed reports are identical to serial)",
    )
    metrics_flag(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("table1", help="regenerate the Table 1 matrix")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("corpus", help="check + verify the bundled corpus")
    pipeline_flags(p)
    metrics_flag(p)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser(
        "batch",
        help="check + verify every program under PATHs via the pipeline",
    )
    p.add_argument(
        "paths",
        nargs="+",
        metavar="PATH",
        help="program files, or directories to scan for *.fcl and "
        "corpus-style *.py programs",
    )
    pipeline_flags(p)
    metrics_flag(p)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser(
        "serve",
        help="long-running check/verify/run daemon (repro-rpc/1)",
    )
    p.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        default=None,
        help="TCP listen address (default 127.0.0.1:7621 when --unix "
        "is not given; PORT 0 picks an ephemeral port)",
    )
    p.add_argument(
        "--unix",
        metavar="PATH",
        default=None,
        help="also/instead listen on a Unix domain socket at PATH",
    )
    p.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="serve verify/batch through the persistent certificate cache",
    )
    p.add_argument(
        "--trust-cache",
        action="store_true",
        help="skip re-verifying cached certificates (requires --cache)",
    )
    p.add_argument(
        "--max-queue",
        type=_positive(int),
        default=None,
        metavar="N",
        help="max requests in flight before new ones get an "
        "'overloaded' error (default 16)",
    )
    p.add_argument(
        "--timeout",
        type=_positive(float),
        default=None,
        metavar="SECONDS",
        help="per-request timeout (default 30)",
    )
    p.add_argument(
        "--max-steps",
        type=_positive(int),
        default=None,
        metavar="N",
        help="step budget applied to every run request (default 5000000)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="pre-forked worker processes sharing one certificate "
        "store (0 = single-process mode on a thread pool; see "
        "--threads)",
    )
    p.add_argument(
        "--threads",
        type=_positive(int),
        default=8,
        metavar="N",
        help="worker threads executing requests in single-process "
        "mode (default 8; ignored with --workers)",
    )
    p.add_argument(
        "--http",
        metavar="HOST:PORT",
        default=None,
        help="also serve an HTTP/JSON gateway (POST /v1/check|verify|"
        "run) on this address; same admission limits as the socket",
    )
    p.add_argument(
        "--cache-entries",
        type=_positive(int),
        default=None,
        metavar="N",
        help="certificate-store entry cap; least-recently-used "
        "entries are evicted past it (default unlimited)",
    )
    p.add_argument(
        "--cache-bytes",
        type=_positive(int),
        default=None,
        metavar="BYTES",
        help="certificate-store size cap in bytes (default unlimited)",
    )
    p.add_argument(
        "--max-frame",
        type=_positive(int),
        default=None,
        metavar="BYTES",
        help="request frame size limit (default 4 MiB)",
    )
    p.add_argument(
        "--trace-buffer",
        type=int,
        default=4096,
        metavar="N",
        help="event-trace ring buffer capacity (0 disables tracing; "
        "default 4096)",
    )
    p.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="F",
        help="probability a root span is recorded (default 1.0)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "client",
        help="talk to a running `repro serve` daemon",
    )
    p.add_argument(
        "--connect",
        metavar="ADDR",
        default="127.0.0.1:7621",
        help="server address: HOST:PORT or unix:PATH "
        "(default 127.0.0.1:7621)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="socket timeout (default 120)",
    )
    p.add_argument(
        "--max-steps",
        type=int,
        default=None,
        metavar="N",
        help="step budget to request for `client run`",
    )
    p.add_argument(
        "--engine",
        choices=("tree", "ir"),
        default=None,
        help="execution engine to request for `client run` (omitted: the "
        "server picks — warm daemons default to ir; the effective engine "
        "is reported on stderr)",
    )
    p.add_argument(
        "--prom",
        action="store_true",
        help="render `client metrics` as Prometheus text exposition",
    )
    p.add_argument(
        "--trace-json",
        metavar="FILE",
        default=None,
        help="trace the action client-side, pull the server's events, "
        "and write the stitched Chrome trace document to FILE",
    )
    p.add_argument(
        "action",
        choices=(
            "ping",
            "check",
            "verify",
            "run",
            "corpus",
            "batch",
            "stats",
            "metrics",
            "trace",
            "shutdown",
        ),
        help="what to ask the server",
    )
    p.add_argument(
        "rest",
        nargs="*",
        metavar="ARG",
        help="action arguments: check/verify FILE · run FILE FN [ARGS...] "
        "· batch PATH... · trace [OUT.json]",
    )
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("repl", help="interactive FCL session")
    p.set_defaults(func=lambda _args: __import__(
        "repro.repl", fromlist=["run_repl"]
    ).run_repl())

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    sys.setrecursionlimit(100_000)
    del _FAILURES[:]  # fresh per invocation (tests call main() repeatedly)
    args = build_parser().parse_args(argv)
    metrics_path = getattr(args, "metrics_json", None)
    reg = None
    if metrics_path or args.command == "stats":
        from . import telemetry

        reg = telemetry.enable()
    try:
        code = args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        code = 0
    finally:
        if reg is not None:
            from . import telemetry

            telemetry.disable()
    if reg is not None and metrics_path:
        from . import telemetry

        try:
            Path(metrics_path).write_text(
                telemetry.export_json(reg, failures=_FAILURES)
            )
        except OSError as exc:
            print(f"error: cannot write {metrics_path}: {exc}", file=sys.stderr)
            return code or 1
        print(f"wrote metrics to {metrics_path}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
