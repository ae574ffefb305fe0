"""Unit tests for the serving scheduler's pure pieces: packers, the
cost model, the compiled-app cache, weighted-fair queuing, and device
placement."""

import pytest

from repro.apps import decision_tree_unit, int_coding_unit
from repro.serve import (
    CompiledAppCache,
    CostModel,
    FifoPacker,
    SkewAwarePacker,
    WeightedFairQueue,
    make_packer,
)
from repro.serve.job import Job
from repro.serve.packing import Batch, BatchEntry
from repro.serve.scheduler import place_batch
from repro.serve.server import default_apps


def _entries(costs, job_id=0):
    job = Job(job_id, "identity", "default", [b"x"] * len(costs))
    return [
        BatchEntry(job, index, b"x" * int(cost), float(cost))
        for index, cost in enumerate(costs)
    ]


# ---------------------------------------------------------------------------
# Packers
# ---------------------------------------------------------------------------


def test_fifo_packer_preserves_arrival_order():
    entries = _entries([5, 100, 7, 3, 90, 2])
    batches = FifoPacker().pack(entries, slots=2)
    assert [[e.predicted_cost for e in b] for b in batches] == [
        [5, 100], [7, 3], [90, 2],
    ]


def test_skew_packer_sorts_by_cost_descending():
    entries = _entries([5, 100, 7, 3, 90, 2])
    batches = SkewAwarePacker().pack(entries, slots=2)
    assert [[e.predicted_cost for e in b] for b in batches] == [
        [100, 90], [7, 5], [3, 2],
    ]


def test_skew_packing_reduces_makespan_on_skewed_window():
    # One heavy stream per FIFO batch forces every batch to pay the
    # heavy-tail maximum; LPT concentrates them into one batch.
    costs = [1000, 1, 1, 1, 1000, 1, 1, 1, 1000, 1, 1, 1]
    entries = _entries(costs)

    def makespan(packer):
        return sum(
            max(e.predicted_cost for e in batch)
            for batch in packer.pack(list(entries), slots=4)
        )

    fifo = makespan(FifoPacker())
    skew = makespan(SkewAwarePacker())
    assert fifo == 3000
    assert skew == 1002  # [1000,1000,1000,1] + [1]*4 + [1]*4
    assert fifo / skew > 2.5


def test_skew_packer_ties_break_by_submission_order():
    # Equal costs: skew must degrade to FIFO exactly (determinism and
    # fairness both depend on the tie-break).
    entries = _entries([7] * 6)
    fifo = FifoPacker().pack(list(entries), slots=2)
    skew = SkewAwarePacker().pack(list(entries), slots=2)
    def key(b):
        return [(e.job.job_id, e.stream_index) for e in b]

    assert [key(b) for b in fifo] == [key(b) for b in skew]


def test_make_packer():
    assert make_packer("fifo").name == "fifo"
    assert make_packer("skew").name == "skew"
    with pytest.raises(ValueError, match="unknown packer"):
        make_packer("lifo")


def test_batch_accounting():
    entries = _entries([10, 4])
    batch = Batch(0, "identity", entries, slots=4)
    assert batch.predicted_makespan == 10
    entries[0].vcycles, entries[1].vcycles = 11, 5
    assert batch.busy_vcycles == 16
    assert Batch(1, "identity", [], slots=4).predicted_makespan == 0


# ---------------------------------------------------------------------------
# Cost model + compiled-app cache
# ---------------------------------------------------------------------------


def test_cost_model_is_exact_for_identity():
    # Identity is token-linear (one vcycle per byte + one cleanup), so
    # the two-point linear fit must predict measured cost exactly.
    from repro.interp import make_simulator

    cache = CompiledAppCache(default_apps())
    model = CostModel(cache)
    program = cache.entry("identity").program
    for length in (1, 17, 500):
        stream = bytes(range(256))[:1] * length
        sim = make_simulator(program)
        sim.run(list(stream))
        assert model.predict("identity", stream) == sim.trace.total_vcycles


def test_cache_compiles_each_app_once(monkeypatch):
    from repro.lang import ast

    cache = CompiledAppCache(default_apps())
    cache.entry("identity")
    serialized = []
    real = ast.canonical_form

    def spy(program):
        serialized.append(program.name)
        return real(program)

    monkeypatch.setattr(ast, "canonical_form", spy)
    for _ in range(4):
        cache.entry("identity")
    # Programs are immutable: a hit never re-hashes its program.
    assert serialized == []
    stats = cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 4
    assert stats["compiled"] == ["identity"]
    assert "identity" in cache and "nope" not in cache


def test_cache_runs_single_streams_on_the_native_kernel(monkeypatch):
    # A lone stream is a batch of one on the entry's kernel.
    from repro.interp import (
        CompiledSimulator,
        kernel_unavailable,
        make_simulator,
        run_batch_streams,
    )

    cache = CompiledAppCache(default_apps())
    entry = cache.entry("identity")
    if kernel_unavailable() is None:
        # One native build per app: the batch unit's kernel at N=1.
        result = run_batch_streams(entry.program, [[4, 5]],
                                   unit=entry.batch_unit)
        assert result.outputs == [[4, 5]]
        assert cache.stats()["engines"] == {"identity": "cc"}
        assert cache.stats()["native"] == ["identity"]
    # FLEET_NATIVE is read when an app is built: with it off, a fresh
    # cache has no kernel, and its streams run on compiled Python.
    monkeypatch.setenv("FLEET_NATIVE", "off")
    cache = CompiledAppCache(default_apps())
    entry = cache.entry("identity")
    assert entry.batch_unit is None
    sim = make_simulator(entry.program)
    assert isinstance(sim, CompiledSimulator)
    assert sim.run([4, 5]) == [4, 5]
    assert cache.stats()["engines"] == {"identity": "compiled-certified"}
    assert cache.stats()["batched"] == cache.stats()["native"] == []


@pytest.mark.parametrize("name,factory", [
    ("int_coding", int_coding_unit),
    ("decision_tree", decision_tree_unit),
])
def test_cache_entry_lowers_each_cycle_once(monkeypatch, fresh_artifacts,
                                           name, factory):
    # One lowering per entry — the token and the cleanup cycle — printed
    # as the native kernel (batch apps) or the certified Python unit.
    from repro.interp import lower as lower_mod
    from repro.lint import certificate as cert_mod
    from repro.serve import ServedApp

    phases = []
    real = lower_mod._Lowering.cycle

    def spy(self, phase):
        phases.append(phase)
        return real(self, phase)

    certified = []
    real_certify = cert_mod.certify_program

    def certify(program, report=None):
        certified.append(program.name)
        return real_certify(program, report)

    monkeypatch.setattr(lower_mod._Lowering, "cycle", spy)
    monkeypatch.setattr(cert_mod, "certify_program", certify)
    cache = CompiledAppCache({name: ServedApp(name, factory)})
    assert cache.stats()["engines"] == {}
    cache.entry(name)
    assert cache.stats()["engines"][name] in ("cc", "compiled-certified")
    assert phases == [0, 1]
    assert certified == [name]
    # A second cache's factory builds a fresh but structurally identical
    # program: it shares the first one's artifacts.
    second = CompiledAppCache({name: ServedApp(name, factory)})
    assert second.entry(name).program is not cache.entry(name).program
    assert second.stats()["engines"] == cache.stats()["engines"]
    assert phases == [0, 1]
    assert certified == [name]


def test_cache_interprets_uncertified_app_without_respecializing(
        monkeypatch, fresh_artifacts):
    # An app that does not certify is resolved to the interpreter once,
    # when its entry is built; its streams must not retry the compiler.
    import repro.interp.compile as compile_mod
    from repro.interp import make_simulator
    from repro.serve import ServedApp

    # Two emits in one cycle for tokens above 3, so it never certifies;
    # tokens up to 3 run cleanly on the interpreter.
    from ..interp.test_batch_engine import _emit_conflict_unit as two_emits

    calls = []
    real = compile_mod.compile_program

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(compile_mod, "compile_program", counting)
    cache = CompiledAppCache({"two": ServedApp("two", two_emits)})
    assert cache.stats()["engines"] == {}
    program = cache.entry("two").program
    assert cache.stats()["engines"] == {"two": "interp"}
    for length in range(5):
        stream = [i % 4 for i in range(length)]
        oracle = make_simulator(two_emits(), engine="interp").run(stream)
        assert make_simulator(program).run(stream) == oracle
    assert len(calls) == 1


def test_cost_calibration_is_cached_and_deterministic():
    cache = CompiledAppCache(default_apps())
    model = CostModel(cache)
    first = model.coefficients("identity")
    assert model.coefficients("identity") is first
    fresh = CostModel(CompiledAppCache(default_apps()))
    assert fresh.coefficients("identity") == first


# ---------------------------------------------------------------------------
# Weighted-fair queuing + placement
# ---------------------------------------------------------------------------


def _jobs(tenants):
    return [
        Job(job_id, "identity", tenant, [b"x"])
        for job_id, tenant in enumerate(tenants)
    ]


def test_wfq_orders_by_virtual_finish_time():
    wfq = WeightedFairQueue({"gold": 2.0, "bronze": 1.0})
    jobs = _jobs(["bronze", "gold", "bronze", "gold"])
    ordered = wfq.order(jobs, lambda job: 100.0)
    # gold finishes at 50/100, bronze at 100/200: under contention the
    # weight-2 tenant's backlog is served twice as fast.
    assert [j.job_id for j in ordered] == [1, 0, 3, 2]


def test_wfq_equal_weights_fall_back_to_submission_order():
    wfq = WeightedFairQueue()
    jobs = _jobs(["a", "b", "a", "b"])
    ordered = wfq.order(jobs, lambda job: 10.0)
    assert [j.job_id for j in ordered] == [0, 1, 2, 3]


def test_wfq_idle_tenant_banks_no_credit():
    wfq = WeightedFairQueue()
    busy = _jobs(["busy"] * 4)
    wfq.order(busy, lambda job: 100.0)
    late = Job(99, "identity", "late", [b"x"])
    more = Job(100, "identity", "busy", [b"x"])
    ordered = wfq.order([more, late], lambda job: 100.0)
    # The late tenant starts at the advanced virtual time, not at 0 —
    # it gets its fair share now, not a retroactive surplus.
    assert ordered[0].job_id == 99
    assert late.vfinish >= 100.0


def test_place_batch_greedy_least_loaded():
    loads = [0.0, 0.0, 0.0]
    entries = _entries([10])
    batch = Batch(0, "identity", entries, slots=1)
    assert place_batch(batch, loads) == 0  # tie -> lowest index
    assert batch.device_index == 0
    assert loads == [10.0, 0.0, 0.0]
    assert place_batch(Batch(1, "identity", _entries([4]), slots=1),
                       loads) == 1
    assert place_batch(Batch(2, "identity", _entries([3]), slots=1),
                       loads) == 2
    assert place_batch(Batch(3, "identity", _entries([1]), slots=1),
                       loads) == 2
