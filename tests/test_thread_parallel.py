"""Thread-shared checking.

The persistent checker core promises that many threads can check
concurrently against one warm :class:`ProgramSession` with zero copies;
the serve daemon's request threads and :class:`repro.api.Session` rely
on it.  These tests cover:

* 8-thread stress: Region interning identity, concurrent check/verify
  against one shared warm session, and the shared IR compile cache;
* the public :class:`api.Session` handle.
"""

import threading

from repro import api
from repro.core.regions import Region
from repro.corpus import load_source
from repro.ir.bytecode import (
    clear_compile_cache,
    compile_cache_entries,
    compile_program,
)
from repro.lang import parse_program
from repro.pipeline import ProgramSession

GOOD = """
struct data { v : int; }
def add(a : int, b : int) : int { a + b }
def boxed() : data { new data(v = 9) }
"""

BAD_TYPE = """
struct data { v : int; }
def f(d : data) : unit { send(d) }
"""

THREADS = 8


def _fan_out(work, n=THREADS):
    """Run ``work(i)`` on ``n`` threads behind a barrier; re-raise the
    first worker exception in the caller."""
    barrier = threading.Barrier(n)
    errors = []

    def runner(i):
        try:
            barrier.wait()
            work(i)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,), name=f"stress-{i}")
        for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestEightThreadStress:
    def test_region_interning_identity_under_contention(self):
        # Fresh idents so every thread races the first-seen insert path.
        idents = list(range(880_000, 880_160))
        rows = [None] * THREADS

        def work(i):
            rows[i] = [Region(ident) for ident in idents]

        _fan_out(work)
        first = rows[0]
        for row in rows[1:]:
            for a, b in zip(first, row):
                assert a is b, "interning returned distinct objects"

    def test_concurrent_checks_of_one_warm_session(self):
        source = load_source("dll")
        session = ProgramSession(source)
        names = session.function_names()
        baseline = {
            name: session.check_function(name).body.node_count() for name in names
        }
        rows = [None] * THREADS

        def work(i):
            local = {}
            # Stagger the start so threads collide on different functions.
            for name in names[i % len(names):] + names[: i % len(names)]:
                fd = session.check_function(name)
                local[name] = fd.body.node_count()
                session.verify_function(fd)
            rows[i] = local

        _fan_out(work)
        assert all(row == baseline for row in rows)

    def test_concurrent_checks_across_corpus_sources(self):
        sources = ["dll", "sll", "queue", "ntree"]
        sessions = {name: ProgramSession(load_source(name)) for name in sources}
        baseline = {
            name: sum(
                session.check_function(f).body.node_count()
                for f in session.function_names()
            )
            for name, session in sessions.items()
        }
        rows = [None] * THREADS

        def work(i):
            name = sources[i % len(sources)]
            session = sessions[name]
            rows[i] = (
                name,
                sum(
                    session.check_function(f).body.node_count()
                    for f in session.function_names()
                ),
            )

        _fan_out(work)
        for name, total in rows:
            assert total == baseline[name]

    def test_shared_compile_cache_under_contention(self):
        source = load_source("sll")
        clear_compile_cache()
        programs = [parse_program(source) for _ in range(THREADS)]
        rows = [None] * THREADS

        def work(i):
            rows[i] = compile_program(programs[i], True, False)

        _fan_out(work)
        first = rows[0]
        for row in rows[1:]:
            assert set(row.funcs) == set(first.funcs)
        # The dust settles to exactly one shared entry, and fresh programs
        # from the same source hit it (identical object, no recompile).
        assert compile_cache_entries() == 1
        again_a = compile_program(parse_program(source), True, False)
        again_b = compile_program(parse_program(source), True, False)
        assert again_a is again_b
        clear_compile_cache()


class TestApiSession:
    def test_warm_session_matches_cold_calls(self):
        session = api.Session(GOOD, filename="x.fcl")
        assert session.ok
        assert session.diagnostics == []
        assert session.function_names() == ["add", "boxed"]
        assert (
            session.check().to_dict()
            == api.check(GOOD, filename="x.fcl").to_dict()
        )
        assert (
            session.verify().to_dict()
            == api.verify(GOOD, filename="x.fcl").to_dict()
        )

    def test_session_run(self):
        session = api.Session(GOOD)
        result = session.run("add", [20, 22])
        assert result.ok
        assert result.value == "42"

    def test_failed_parse_session_never_raises(self):
        session = api.Session("struct {", filename="broken.fcl")
        assert not session.ok
        assert session.diagnostics[0].code == "ParseError"
        assert session.function_names() == []
        check = session.check()
        assert not check.ok
        assert check.diagnostics[0].code == "ParseError"
        verify = session.verify()
        assert not verify.ok
        run = session.run("main")
        assert not run.ok

    def test_type_error_session_reports_via_check(self):
        session = api.Session(BAD_TYPE, filename="bad.fcl")
        result = session.check()
        assert not result.ok
        assert result.diagnostics[0].code == "SendError"
        assert result.diagnostics[0].file == "bad.fcl"

    def test_repr_mentions_state(self):
        assert "Session" in repr(api.Session(GOOD))

    def test_package_root_exports_session(self):
        import repro

        assert repro.Session is api.Session
