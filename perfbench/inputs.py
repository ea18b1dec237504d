"""Seeded inputs for every benchmark workload.

``build(workload, seed)`` is the one generator: the same seed always gives
the same programs, edit plan, request plan and driver sources, and the
program under test only ever sees the generated inputs.  Expected answers
come from how an input was made (a negative-corpus entry names its error
class, a generated base case is well typed by construction), never from
the checker under test.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench_serve import MIX
from repro.corpus import corpus_names, load_source
from repro.corpus.negative import NEGATIVE_CASES
from repro.fuzz.gen import ProgramGen
from repro.lang import tokenize
from repro.lang.tokens import TokenKind

WORKLOADS = ("verify-batch", "edit-rebatch", "serve-mix", "run-engine")

#: Benchmark-owned drivers appended to corpus programs: int arguments in,
#: one int out, so every engine's answer compares as a plain value.
DRIVERS: Dict[str, Tuple[str, str]] = {
    "sll": ("bench_sll", """
def bench_sll(n : int, k : int) : int {
  let l = make_list(n);
  let acc = 0;
  while (k > 0) {
    acc = acc + sum(l) + list_length(l);
    k = k - 1
  };
  acc
}
"""),
    "dll": ("bench_dll", """
def bench_dll(n : int, k : int) : int {
  let l = make_dll(n);
  let acc = 0;
  while (k > 0) {
    acc = acc + dll_sum(l) + dll_length(l);
    k = k - 1
  };
  acc
}
"""),
    "rbtree": ("bench_rb", """
def bench_rb(n : int, seed : int, q : int) : int {
  let t = build_tree(n, seed);
  let hits = 0;
  let x = seed;
  while (q > 0) {
    x = (x * 75 + 74) % 65537;
    if (rb_contains(t, x)) { hits = hits + 1 } else { () };
    q = q - 1
  };
  hits * 100000 + tree_size(t)
}
"""),
    "ntree": ("bench_nt", """
def bench_nt(depth : int, arity : int, base : int) : int {
  let t = build(depth, arity, base);
  size(t) + tag_sum(t) + height(t)
}
"""),
    "algorithms": ("bench_sort", """
def bench_sort(n : int, seed : int) : int {
  let l = make_list_lcg(n, seed);
  sort(l);
  let ok = list_is_sorted(l);
  let some(h) = l.hd in {
    if (ok) { list_sum(h) + list_len(h) } else { 0 - 1 }
  } else { 0 }
}
"""),
}


@dataclass(frozen=True)
class Program:
    """One input program and its known answer."""

    label: str
    source: str
    #: ``None`` for a program that must be accepted and verified; otherwise
    #: the error class (or a base class of it) the checker must reject it
    #: with.
    expect: Optional[type] = None

    @property
    def functions(self) -> int:
        """Top-level definitions, counted from the text alone."""
        return len(re.findall(r"^def ", self.source, re.M))


@dataclass(frozen=True)
class RunCall:
    """One execution op: a driver call, or a threaded case on a Machine."""

    label: str
    source: str
    #: ``(function, int args)`` per thread in spawn order; one entry for a
    #: single-threaded driver call.
    spawns: Tuple[Tuple[str, Tuple[int, ...]], ...]
    #: Scheduler seed of a threaded case; ``None`` for a driver call.
    sched_seed: Optional[int] = None


@dataclass(frozen=True)
class Request:
    """One serve request."""

    method: str  # "check" | "verify" | "run"
    source_id: int
    filename: str
    #: "run", or what a check/verify sends: "cold" (a source never sent
    #: before), "fresh-name" (a hot source under a new file name) or
    #: "own-name" (a hot source under its own file name).
    kind: str
    function: str = ""
    args: Tuple[int, ...] = ()


@dataclass
class Inputs:
    workload: str
    seed: int
    programs: List[Program] = field(default_factory=list)
    #: edit-rebatch: ``rounds[r][p]`` is program ``p``'s source in round r.
    rounds: List[List[str]] = field(default_factory=list)
    #: edit-rebatch: ``round_misses[r][p]`` = functions edited in program p.
    round_misses: List[List[int]] = field(default_factory=list)
    #: serve-mix sources (indexed by ``Request.source_id``) and plan.
    sources: List[Program] = field(default_factory=list)
    requests: List[Request] = field(default_factory=list)
    #: run-engine ops.
    calls: List[RunCall] = field(default_factory=list)
    #: Positive programs whose cold IR compile ``compile_ms`` measures.
    compile_set: List[str] = field(default_factory=list)


def driver_source(corpus: str) -> str:
    return load_source(corpus) + DRIVERS[corpus][1]


def corpus_programs() -> List[Program]:
    return [Program(f"corpus/{name}", load_source(name)) for name in corpus_names()]


def negative_programs() -> List[Program]:
    return [
        Program(f"negative/{case.name}", case.source, case.error)
        for case in NEGATIVE_CASES
    ]


def generated_cases(rng: random.Random, count: int):
    """A stratified seeded draw of ``ProgramGen`` base cases: equal shares
    of the single-thread shape and of 2-, 3- and 4-thread pipelines, so
    the cost mix holds still while the programs themselves change."""
    gen = ProgramGen(random.Random(rng.getrandbits(64)))
    strata = ("single", 2, 3, 4)
    quota = {s: count // len(strata) for s in strata}
    for s in strata[: count % len(strata)]:
        quota[s] += 1
    out = []
    while len(out) < count:
        case = gen.generate()
        stratum = "single" if case.kind == "single" else len(case.spawns)
        if quota[stratum] > 0:
            quota[stratum] -= 1
            out.append(case)
    return out


def generated_programs(rng: random.Random, count: int, tag: str) -> List[Program]:
    return [
        Program(f"gen/{tag}{index}-{case.ident}", case.source)
        for index, case in enumerate(generated_cases(rng, count))
    ]


def _function_literals(source: str) -> Dict[str, List[Tuple[int, int]]]:
    """Integer-literal spans ``(start, end)`` of each function body."""
    out: Dict[str, List[Tuple[int, int]]] = {}
    current: Optional[str] = None
    tokens = tokenize(source)
    for index, tok in enumerate(tokens):
        if tok.kind is TokenKind.DEF:
            current = tokens[index + 1].text
            out[current] = []
        elif tok.kind is TokenKind.STRUCT:
            current = None
        elif tok.kind is TokenKind.INT and current is not None:
            out[current].append((tok.span.start, tok.span.end))
    return {name: spans for name, spans in out.items() if spans}


def edit_rounds(
    rng: random.Random,
    programs: Sequence[Program],
    rounds: int,
    fraction: float,
) -> Tuple[List[List[str]], List[List[int]]]:
    """The edit plan: each round rewrites one integer literal in a seeded
    ``fraction`` of the functions that have one, starting from the base
    text.  Every new literal is globally fresh, so an edited function's
    cache key has never been stored before and exactly the edited
    functions miss."""
    editable = [
        (p, name, spans)
        for p, prog in enumerate(programs)
        for name, spans in sorted(_function_literals(prog.source).items())
    ]
    per_round = max(1, round(len(editable) * fraction))
    fresh = 900_000
    sources: List[List[str]] = []
    misses: List[List[int]] = []
    for _ in range(rounds):
        edits: Dict[int, List[Tuple[int, int, str]]] = {}
        for p, _name, spans in rng.sample(editable, per_round):
            start, end = rng.choice(spans)
            fresh += 1
            edits.setdefault(p, []).append((start, end, str(fresh)))
        row, miss_row = [], []
        for p, prog in enumerate(programs):
            text = prog.source
            for start, end, literal in sorted(edits.get(p, []), reverse=True):
                text = text[:start] + literal + text[end:]
            row.append(text)
            miss_row.append(len(edits.get(p, [])))
        sources.append(row)
        misses.append(miss_row)
    return sources, misses


#: Generated programs added to the corpus in the ``compile_ms`` set of the
#: batch workloads (all of them would make each repetition needlessly long).
COMPILE_GENERATED = 4

#: Generated programs in verify-batch.  Their costs differ by about 3x, and
#: the typical op is one of them, so the draw is large enough that the
#: median and total cost of the batch hold still from seed to seed.
VERIFY_GENERATED = 72


def _verify_batch(rng: random.Random, inputs: Inputs) -> None:
    programs = corpus_programs() + negative_programs()
    generated = generated_programs(rng, VERIFY_GENERATED, "v")
    programs += generated
    rng.shuffle(programs)
    inputs.programs = programs
    inputs.compile_set = [p.source for p in corpus_programs() + generated[:COMPILE_GENERATED]]


def _edit_rebatch(rng: random.Random, inputs: Inputs) -> None:
    generated = generated_programs(rng, 12, "e")
    programs = corpus_programs() + generated
    rng.shuffle(programs)
    inputs.programs = programs
    inputs.rounds, inputs.round_misses = edit_rounds(rng, programs, 48, 0.08)
    inputs.compile_set = [p.source for p in corpus_programs() + generated[:COMPILE_GENERATED]]


#: serve-mix plan.  Methods rotate through ``repro.bench_serve.MIX`` (16
#: check : 3 verify : 1 run), the mix the repo's serve-load harness uses;
#: run requests call the drivers in turn.  Which source and file name a
#: check or verify sends is a chosen skew, not measured traffic: COLD_SHARE
#: of them send a source the server has never seen (a pool program with one
#: fresh integer literal, as after an edit); the rest pick from a fixed hot
#: pool with Zipf(ZIPF_S) popularity, and FRESH_NAME_SHARE of those send it
#: under a file name not used before (the result memo is keyed by file
#: name, so the server checks again on its warm session), the others under
#: the source's own name (a memo hit once seen).  Each run reports the
#: shares it measured.  The plan is never cycled, so SERVE_PLAN stays well
#: above what the fastest run gets through.  Cold sources take most of the
#: server's time, so COLD_POOL is large enough that their mean cost, and
#: with it the throughput, does not depend on which programs the seed drew.
SERVE_PLAN = 20000
COLD_SHARE = 0.2
FRESH_NAME_SHARE = 0.6
ZIPF_S = 1.2
COLD_POOL = 48

#: Small serve run sizes: each run request re-checks its program, so the
#: execution share stays comparable to the check share.
SERVE_ARGS = {
    "bench_sll": lambda r: (r.randrange(48, 53), 2),
    "bench_dll": lambda r: (r.randrange(48, 53), 2),
    "bench_rb": lambda r: (r.randrange(48, 53), r.randrange(1, 60000), 20),
    "bench_nt": lambda r: (3, 3, r.randrange(1, 50)),
    "bench_sort": lambda r: (r.randrange(48, 53), r.randrange(1, 1000)),
}


def _serve_mix(rng: random.Random, inputs: Inputs) -> None:
    drivers = [
        Program(f"driver/{name}", driver_source(name)) for name in sorted(DRIVERS)
    ]
    # Popularity order, not shuffled: the most popular programs are small
    # corpus files whose cost does not depend on the seed, so neither does
    # the cost of the typical request.  The drivers take the run requests
    # only: verifying the large corpus programs they extend would make the
    # slowest percent of requests a handful of very different costs.
    hot = [
        Program(f"corpus/{name}", load_source(name))
        for name in ("fuzzmin", "queue", "signatures")
    ]
    hot += generated_programs(rng, 4, "s")
    hot += negative_programs()[::4]
    pool = [
        (p, [s for found in _function_literals(p.source).values() for s in found])
        for p in generated_programs(rng, COLD_POOL, "c")
    ]
    pool = [(p, spans) for p, spans in pool if spans]
    sources = hot + drivers
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(hot))]
    run_ids = range(len(hot), len(sources))
    # A few argument tuples per driver, so run requests repeat and their
    # tree-interpreter references stay cheap to compute.
    run_args = {
        sid: [SERVE_ARGS[DRIVERS[sources[sid].label.split("/")[1]][0]](rng) for _ in range(4)]
        for sid in run_ids
    }
    requests: List[Request] = []
    for index in range(SERVE_PLAN):
        method = MIX[index % len(MIX)]
        if method == "run":
            sid = run_ids[(index // len(MIX)) % len(run_ids)]
            fn = DRIVERS[sources[sid].label.split("/")[1]][0]
            args = rng.choice(run_args[sid])
            requests.append(Request("run", sid, f"{sources[sid].label}.fcl", "run", fn, args))
        elif rng.random() < COLD_SHARE:
            base, spans = rng.choice(pool)
            start, end = rng.choice(spans)
            text = base.source[:start] + str(900_000 + index) + base.source[end:]
            sources.append(Program(f"{base.label}@{index}", text))
            requests.append(Request(method, len(sources) - 1, f"{base.label}@{index}.fcl", "cold"))
        else:
            sid = rng.choices(range(len(hot)), weights=weights)[0]
            if rng.random() < FRESH_NAME_SHARE:
                name, kind = f"{hot[sid].label}@{index}", "fresh-name"
            else:
                name, kind = hot[sid].label, "own-name"
            requests.append(Request(method, sid, f"{name}.fcl", kind))
    inputs.sources = sources
    inputs.requests = requests
    inputs.compile_set = [p.source for p in hot + drivers if p.expect is None]


#: run-engine driver sizes: execution dominates the per-call re-check.  The
#: costs form two tight clusters (on a 2-vCPU x86-64 host): the rbtree
#: calls, 2 of the 16 ops, take ~55 ms and every other driver call ~30 ms,
#: so the median op lies inside the one cluster and the 95th percentile
#: inside the other, whichever calls a slice happens to hold, and neither
#: sits on a cliff between them.  The seed moves values (list lengths by
#: about 1%, tree keys, sort input, tags), not the amount of work.
ENGINE_ARGS = {
    "bench_sll": lambda r: (r.randrange(198, 203), 48),
    "bench_dll": lambda r: (r.randrange(198, 203), 48),
    "bench_rb": lambda r: (r.randrange(298, 303), r.randrange(1, 60000), 1200),
    "bench_nt": lambda r: (6, 4, r.randrange(1, 1000)),
    "bench_sort": lambda r: (r.randrange(365, 376), r.randrange(1, 1000)),
}


def _run_engine(rng: random.Random, inputs: Inputs) -> None:
    calls: List[RunCall] = []
    for name in sorted(DRIVERS):
        fn = DRIVERS[name][0]
        source = driver_source(name)
        for index in range(2):
            args = ENGINE_ARGS[fn](rng)
            calls.append(RunCall(f"driver/{name}#{index}", source, ((fn, args),)))
    for case in generated_cases(rng, 8):
        if case.kind != "pipeline":
            continue
        spawns = tuple((fn, tuple(args)) for fn, args in case.spawns)
        calls.append(
            RunCall(f"machine/{case.ident}", case.source, spawns,
                    sched_seed=rng.randrange(1 << 30))
        )
    rng.shuffle(calls)
    inputs.calls = calls
    inputs.compile_set = sorted({c.source for c in calls})


_BUILDERS = {
    "verify-batch": _verify_batch,
    "edit-rebatch": _edit_rebatch,
    "serve-mix": _serve_mix,
    "run-engine": _run_engine,
}


def build(workload: str, seed: int) -> Inputs:
    """Every input of one workload, derived from ``seed`` alone."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    inputs = Inputs(workload, seed)
    _BUILDERS[workload](random.Random(f"{workload}:{seed}"), inputs)
    return inputs
