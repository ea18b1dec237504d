"""Persistent structural sharing must be observationally invisible.

``StaticContext.clone`` shares the heap/Γ dicts and their inner
``TrackingContext``/``TrackedVar`` objects; published objects are
immutable, and a handle path-copies an inner object the first time *it*
writes (ownership is tracked handle-side, never on the shared objects —
which is what makes two threads checking against the same warm session
safe).  These tests sweep *every* mutating method over a cloned context
and check, against a ``copy.deepcopy`` oracle, that

* the mutation lands exactly as it would on an eager deep copy, and
* the sibling context never observes it — in either direction (mutate the
  clone, the original is untouched; mutate the original, the clone is),
* and the sibling's published object graph stays **identical**: the very
  same inner objects, with byte-for-byte unchanged contents.

A failure here means a mutation path bypassed ``own_heap``/``own_gamma``/
``own_tracking``/``own_tracked`` and scribbled on shared structure.
"""

import copy

import pytest

from repro import telemetry
from repro.core import framing
from repro.core.checker import Checker
from repro.core.contexts import StaticContext, contexts_equal
from repro.core.regions import Region, RegionRenaming, RegionSupply
from repro.corpus import corpus_names, load_source
from repro.lang import ast, parse_program

NODE = ast.StructType("node")
INT = ast.PrimType("int")


def make_ctx():
    """A context exercising every structural feature: tracked variables
    with explored fields, an untracked binding, a primitive binding, and
    an empty spare region."""
    ctx = StaticContext(RegionSupply())
    r_a = ctx.fresh_region()
    ctx.bind("a", NODE, r_a)
    ctx.focus("a")
    r_f = ctx.explore("a", "f")
    r_b = ctx.fresh_region()
    ctx.bind("b", NODE, r_b)
    r_c = ctx.fresh_region()
    ctx.bind("c", NODE, r_c)
    ctx.focus("c")
    ctx.bind("p", INT, None)
    r_d = ctx.fresh_region()
    return ctx, {"a": r_a, "f": r_f, "b": r_b, "c": r_c, "d": r_d}


def state(ctx):
    """A plain, cache-free structural fingerprint of a context."""
    heap = {
        region.ident: (
            tc.pinned,
            {
                name: (
                    tv.pinned,
                    {
                        f: (None if t is None else t.ident)
                        for f, t in tv.fields.items()
                    },
                )
                for name, tv in tc.vars.items()
            },
        )
        for region, tc in ctx.heap.items()
    }
    gamma = {
        name: (repr(b.ty), None if b.region is None else b.region.ident)
        for name, b in ctx.gamma.items()
    }
    return heap, gamma


def op_frame_cycle(ctx, r):
    frame = framing.frame_away(ctx, regions={r["f"]}, variables={"b"})
    framing.restore(ctx, frame)


def op_take_from(ctx, r):
    other = StaticContext(RegionSupply())
    region = other.fresh_region()
    other.bind("q", NODE, region)
    ctx.take_from(other)


MUTATORS = [
    ("fresh_region", lambda ctx, r: ctx.fresh_region()),
    ("add_region", lambda ctx, r: ctx.add_region(Region(900))),
    ("set_region_pinned", lambda ctx, r: ctx.set_region_pinned(r["b"], True)),
    ("set_var_pinned", lambda ctx, r: ctx.set_var_pinned(r["a"], "a", True)),
    ("bind", lambda ctx, r: ctx.bind("z", NODE, r["b"])),
    ("set_binding", lambda ctx, r: ctx.set_binding("b", NODE, r["d"])),
    ("drop_var", lambda ctx, r: ctx.drop_var("b")),
    ("focus", lambda ctx, r: ctx.focus("b")),
    ("unfocus", lambda ctx, r: ctx.unfocus("c")),
    ("explore", lambda ctx, r: ctx.explore("c", "g")),
    ("explore_at", lambda ctx, r: ctx.explore_at("c", "g", Region(901))),
    ("retract", lambda ctx, r: ctx.retract("a", "f")),
    ("attach", lambda ctx, r: ctx.attach(r["f"], r["d"])),
    ("drop_region", lambda ctx, r: ctx.drop_region(r["d"])),
    ("drop_region_referenced", lambda ctx, r: ctx.drop_region(r["f"])),
    ("consume_region_for_send", lambda ctx, r: ctx.consume_region_for_send(r["d"])),
    ("invalidate_field", lambda ctx, r: ctx.invalidate_field("a", "f")),
    ("set_field_target", lambda ctx, r: ctx.set_field_target("a", "f", r["d"])),
    ("install_tracked_field", lambda ctx, r: ctx.install_tracked_field("a", "h", r["d"])),
    ("rename_tracked", lambda ctx, r: ctx.rename_tracked(r["a"], "a", "ghost_a")),
    ("rename_region", lambda ctx, r: ctx.rename_region(r["b"], Region(902))),
    (
        "apply_renaming",
        lambda ctx, r: ctx.apply_renaming(_renaming(r["f"], Region(903))),
    ),
    ("frame_cycle", op_frame_cycle),
    ("take_from", op_take_from),
]


def _renaming(source, target):
    renaming = RegionRenaming()
    assert renaming.bind(source, target)
    return renaming


@pytest.mark.parametrize("name,mutate", MUTATORS, ids=[m[0] for m in MUTATORS])
def test_clone_mutation_never_leaks_into_original(name, mutate):
    base, regions = make_ctx()
    clone = base.clone()
    before = state(base)

    oracle = copy.deepcopy(base)
    mutate(oracle, regions)
    mutate(clone, regions)

    assert state(base) == before, f"{name} leaked from clone into original"
    assert state(clone) == state(oracle), f"{name} diverged from eager-copy oracle"


@pytest.mark.parametrize("name,mutate", MUTATORS, ids=[m[0] for m in MUTATORS])
def test_original_mutation_never_leaks_into_clone(name, mutate):
    base, regions = make_ctx()
    clone = base.clone()
    before = state(clone)

    oracle = copy.deepcopy(base)
    mutate(oracle, regions)
    mutate(base, regions)

    assert state(clone) == before, f"{name} leaked from original into clone"
    assert state(base) == state(oracle), f"{name} diverged from eager-copy oracle"


def object_graph(ctx):
    """Identity + content snapshot of every inner object reachable from
    ``ctx``: (dict objects, TrackingContexts, TrackedVars) with the exact
    object references and their current contents."""
    tcs = {}
    tvs = {}
    for region, tc in ctx.heap.items():
        tcs[region.ident] = (tc, tc.pinned, dict(tc.vars))
        for name, tv in tc.vars.items():
            tvs[(region.ident, name)] = (tv, tv.pinned, dict(tv.fields))
    return (ctx.heap, ctx.gamma, tcs, tvs)


def assert_graph_byte_stable(before, ctx, label):
    """The context still holds the *same* objects with unchanged
    contents — structural equality is not enough; persistence promises
    the published graph is never written."""
    heap, gamma, tcs, tvs = before
    assert ctx.heap is heap, f"{label}: heap dict was replaced"
    assert ctx.gamma is gamma, f"{label}: gamma dict was replaced"
    now_heap, now_gamma, now_tcs, now_tvs = object_graph(ctx)
    assert set(now_tcs) == set(tcs), f"{label}: region set changed"
    for key, (tc, pinned, var_map) in tcs.items():
        tc_now = now_tcs[key][0]
        assert tc_now is tc, f"{label}: TrackingContext {key} replaced"
        assert tc.pinned == pinned, f"{label}: TC {key} pinned flag mutated"
        assert tc.vars == var_map, f"{label}: TC {key} vars mutated"
    for key, (tv, pinned, field_map) in tvs.items():
        tv_now = now_tvs[key][0]
        assert tv_now is tv, f"{label}: TrackedVar {key} replaced"
        assert tv.pinned == pinned, f"{label}: TV {key} pinned flag mutated"
        assert tv.fields == field_map, f"{label}: TV {key} fields mutated"


@pytest.mark.parametrize("name,mutate", MUTATORS, ids=[m[0] for m in MUTATORS])
def test_clone_mutation_leaves_original_graph_byte_stable(name, mutate):
    base, regions = make_ctx()
    clone = base.clone()
    graph = object_graph(base)
    mutate(clone, regions)
    assert_graph_byte_stable(graph, base, name)


def test_checking_leaves_shared_contexts_byte_stable():
    """End-to-end: cloning a context into branch arms and mutating each
    arm (the checker's branch pattern) never writes the parent graph."""
    base, regions = make_ctx()
    graph = object_graph(base)
    for _ in range(3):
        arm = base.clone()
        arm.focus("b")
        arm.explore("c", "g")
        arm.invalidate_field("a", "f")
        arm.drop_var("b")
        assert_graph_byte_stable(graph, base, "branch-arm")


def test_clone_of_clone_chain_isolated():
    """Three-deep clone chain: a mutation at any depth stays there."""
    base, regions = make_ctx()
    mid = base.clone()
    leaf = mid.clone()
    snap_base, snap_mid = state(base), state(mid)

    leaf.explore("c", "g")
    leaf.invalidate_field("a", "f")
    leaf.drop_var("b")

    assert state(base) == snap_base
    assert state(mid) == snap_mid
    assert contexts_equal(base, mid)


def test_clone_preserves_snapshot_equality():
    base, _ = make_ctx()
    clone = base.clone()
    assert contexts_equal(base, clone)
    assert base.canonical_key() == clone.canonical_key()


def _chain_program(chain=20):
    """A function with ``chain`` sequential iso manipulations and branches:
    every branch clones the context, and each arm writes it."""
    lines = [
        "struct data { v : int; }",
        "struct box { iso inner : data?; }",
        "def fn(b : box, c : bool) : int {",
        "  let acc = 0;",
    ]
    for i in range(chain):
        lines.append(f"  let d{i} = new data(v = {i});")
        lines.append(f"  b.inner = some(d{i});")
        lines.append(
            f"  if (c) {{ let some(x{i}) = b.inner in {{ acc = acc + x{i}.v }}"
            f" else {{ acc = acc }} }} else {{ acc = acc + {i} }};"
        )
    lines.append("  acc")
    lines.append("}")
    return "\n".join(lines)


@pytest.mark.parametrize(
    "name", sorted(corpus_names()) + ["generated-chain-20"]
)
def test_persistent_clones_copy_fewer_dicts_than_eager(name):
    """Over a whole checker run, the path copies clones actually made stay
    below the dicts an eager deep clone would have allocated."""
    source = _chain_program() if name.startswith("generated") else load_source(name)
    program = parse_program(source)
    reg = telemetry.enable()
    try:
        Checker(program, record=False).check_program()
    finally:
        telemetry.disable()
    copies = sum(
        reg.value(f"contexts.persist.{kind}_copies")
        for kind in ("heap", "gamma", "tc", "tv")
    )
    assert reg.value("contexts.clones") > 0
    assert copies < reg.value("contexts.clone.dicts_eager")
