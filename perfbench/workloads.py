"""The three workloads: cold-suite, steady-suite and serve-mix.

Every workload runs under the default configuration (the ``newself``
compiler, modeled counters on, no persistent code cache, no
``REPRO_*`` variable) and checks every answer against the program's
hand-written ``Benchmark.expected``.  Each returns a :class:`Result`:
one :class:`Answer` per checked answer of the measured part, plus the
set-up and first-answer times and, in a traced run, the per-layer
metrics.

The seed only orders work; it never changes what is run or how often.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from layers import SPAN_NAMES, LayerTracer

#: the 21 non-poly paper programs (stanford, stanford-oo, small, richards)
SUITE = (
    "perm", "towers", "queens", "intmm", "puzzle", "quick", "bubble",
    "tree", "perm-oo", "towers-oo", "queens-oo", "intmm-oo", "quick-oo",
    "bubble-oo", "tree-oo", "sieve", "sumTo", "sumFromTo", "sumToConst",
    "atAllPut", "richards",
)

#: steady-suite adds one megamorphic program for the dispatch ladder
STEADY_SUITE = SUITE + ("poly32",)

#: serve-mix popularity: requests per tenant per block, for short
#: programs (a warm request, do-it recompile included, takes 15-50 ms).
#: The poly programs share slot names, so the image holds one variant.
SERVE_MIX = (
    ("sieve", 6), ("sumTo", 4), ("sumFromTo", 3), ("sumToConst", 3),
    ("atAllPut", 5), ("towers-oo", 4), ("queens-oo", 3), ("poly8", 3),
)

TENANTS = ("t0", "t1", "t2", "t3")

#: service counters reported per layer (zero outside serve-mix)
SERVE_COUNTS = ("serve.shed", "serve.retries", "serve.quarantines")

#: serve-mix runs whole blocks until both the time and this many
#: requests are reached
MIN_REQUESTS = 1000

#: a traced serve-mix run serves exactly this many blocks, tracing the
#: even ones (block 0 holds every tenant's first contact)
TRACE_BLOCKS = 8


@dataclass
class Answer:
    """One checked answer of the measured part."""

    program: str
    ms: float
    #: modeled cycles the answer executed (None for writes)
    cycles: Optional[int] = None


@dataclass
class Result:
    answers: list = field(default_factory=list)
    setup_s: float = 0.0
    #: program -> seconds of each fresh runtime's first answer
    first: dict = field(default_factory=dict)
    #: wall clock of the measured part
    measured_s: float = 0.0
    code_bytes: int = 0
    #: answers and responses checked, set-up included, and how many
    #: were wrong (a wrong answer, or a non-ok or shed response)
    attempted: int = 0
    failed: int = 0
    layers: dict = field(default_factory=dict)


def benchmarks() -> dict:
    from repro.bench.base import all_benchmarks

    return all_benchmarks()


def check(result: Result, program: str, got, expected) -> None:
    """Count one answer, and a failure when it is not ``expected``."""
    result.attempted += 1
    if got != expected:
        result.failed += 1
        print(f"wrong answer: {program}: got {got!r}, expected {expected!r}",
              file=sys.stderr)


def live_code_bytes(runtime) -> int:
    return sum(
        getattr(code, "size_bytes", 0) for code in runtime.iter_compiled_codes()
    )


# ---------------------------------------------------------------------------
# Per-layer counters read off the runtimes (the spans give the times)
# ---------------------------------------------------------------------------


def runtime_counters(runtime) -> dict:
    stats = runtime.translate_stats
    return {
        "compiler.share_hits": runtime.share_hits,
        "robustness.degraded": runtime.recovery.total,
        "robustness.retired": runtime.universe.deps.stats["codes_retired"],
        "vm.code_bytes": runtime.code_bytes,
        "vm.translated": stats["translated"],
        "vm.emit_failed": stats["emit_failed"],
        "vm.factories_reused": stats["reused"],
        "vm.mega_table_hits": runtime.mega_table_hits,
        "ic.hits": runtime.send_hits,
        "ic.sends": (
            runtime.send_hits + runtime.send_misses
            + runtime.send_pic_hits + runtime.send_megamorphic
        ),
    }


class Tally:
    """Counter deltas over the traced parts of a run."""

    def __init__(self) -> None:
        self.totals: dict = {}
        self._before: dict = {}

    def start(self, runtimes) -> None:
        self._before = {id(rt): runtime_counters(rt) for rt in runtimes}

    def stop(self, runtimes) -> None:
        for runtime in runtimes:
            before = self._before.get(id(runtime), {})
            for key, value in runtime_counters(runtime).items():
                self.totals[key] = (
                    self.totals.get(key, 0) + value - before.get(key, 0)
                )


def held_state(runtimes) -> dict:
    """What the runtimes hold when traced work ends."""
    from repro.types.lattice import cache_sizes

    return {
        "vm.fused": sum(
            rt.aggregate_dispatch_stats()["superinstructions_fused"]
            for rt in runtimes
        ),
        "types.intern_entries": sum(
            size for name, size in cache_sizes().items()
            if not name.startswith("memo:")
        ),
    }


def layer_metrics(
    tracer: LayerTracer, tally: Tally, state: dict, wall_s: float,
    units: int, overhead_frac: float, serve: Optional[dict] = None,
) -> dict:
    """The per-layer metrics: traced totals divided by ``units``."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = (tracer.self_s.get(name, 0.0) / units, "s")
    counts = {
        "lang.parse_calls": tracer.calls["lang.parse"],
        "world.forks": tracer.calls["world.fork"],
        "world.lookup_calls": tracer.calls["world.lookup"],
        "compiler.compiles": tracer.calls["compiler.compile"],
        "compiler.graph_nodes": tracer.counts["compiler.graph_nodes"],
        "compiler.doit_compiles": tracer.counts["compiler.doit_compiles"],
        "robustness.invalidations": tracer.calls["robustness.invalidate"],
    }
    totals = tally.totals
    for key in (
        "compiler.share_hits", "robustness.degraded", "robustness.retired",
        "vm.translated", "vm.emit_failed", "vm.factories_reused",
        "vm.mega_table_hits",
    ):
        counts[key] = totals.get(key, 0)
    for key in SERVE_COUNTS:
        counts[key] = (serve or {}).get(key, 0)
    for key, value in counts.items():
        out[key] = (value / units, "count")
    out["vm.code_kb"] = (totals.get("vm.code_bytes", 0) / 1024 / units, "KiB")
    out["vm.fused"] = (state["vm.fused"], "count")
    out["types.intern_entries"] = (state["types.intern_entries"], "count")
    sends = totals.get("ic.sends", 0)
    out["vm.ic_hit_ratio"] = (
        totals.get("ic.hits", 0) / sends if sends else 0.0, "ratio"
    )
    layer_s = sum(tracer.self_s.values())
    out["trace.harness_s"] = ((wall_s - layer_s) / units, "s")
    out["trace.attributed_frac"] = (layer_s / wall_s, "ratio")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    out["trace.units"] = (units, "count")
    return out


# ---------------------------------------------------------------------------
# cold-suite
# ---------------------------------------------------------------------------


def fresh_world(benchmark):
    """Clear the type caches, bootstrap a world and install the program."""
    from repro.types.lattice import clear_caches
    from repro.world.bootstrap import World

    clear_caches()
    world = World()
    world.add_slots(benchmark.setup_source)
    return world


def cold_answer(result: Result, benchmark, world):
    """Runtime creation to verified answer, doing what ``Runtime.run``
    does but keeping the parsed do-it, whose identity keys the compiled
    code; returns (seconds, runtime, do-it)."""
    from repro.compiler.config import NEW_SELF
    from repro.vm import runtime as vm_runtime

    started = perf_counter()
    runtime = vm_runtime.Runtime(world, NEW_SELF)
    doit = vm_runtime.parse_doit(benchmark.run_source)
    got = runtime.run_doit(doit)
    check(result, benchmark.name, got, benchmark.expected)
    return perf_counter() - started, runtime, doit


def copies(tracer, index: int) -> tuple:
    """Which copies of one unit of work to run: untraced only, or, in a
    traced run, an untraced reference and a traced copy, alternating
    which goes first so neither always finds the caches warm."""
    if tracer is None:
        return (False,)
    return (False, True) if index % 2 else (True, False)


def cold_suite(
    seed: int, seconds: float, tracer: Optional[LayerTracer] = None,
    programs=SUITE,
) -> Result:
    """Every program once per pass, each from a fresh world and runtime,
    in seeded order; passes repeat while another fits in ``seconds``.
    A traced run makes one pass and reports the traced copies."""
    table = benchmarks()
    rng = random.Random(seed)
    result = Result()
    pass_setups, passes_s = [], []
    code_sizes: dict = {}
    tally = Tally()
    held = {"vm.fused": 0, "types.intern_entries": 0}
    copy_cold = {False: 0.0, True: 0.0}
    traced_wall = 0.0
    began = perf_counter()
    while True:
        order = list(programs)
        rng.shuffle(order)
        setup_s = cold_s = 0.0
        for index, name in enumerate(order):
            benchmark = table[name]
            for traced in copies(tracer, index):
                # Untimed: start each program from a collected heap, as
                # a fresh process would.
                gc.collect()
                if traced:
                    tracer.unit = name
                    tracer.enable()
                started = perf_counter()
                world = fresh_world(benchmark)
                ready = perf_counter()
                elapsed, runtime, _ = cold_answer(result, benchmark, world)
                copy_cold[traced] += elapsed
                if traced:
                    tracer.disable()
                    traced_wall += perf_counter() - started
                    tally.stop([runtime])
                    for key, value in held_state([runtime]).items():
                        held[key] += value
                elif tracer is not None:
                    continue
                setup_s += ready - started
                cold_s += elapsed
                result.first.setdefault(name, []).append(elapsed)
                result.answers.append(
                    Answer(name, elapsed * 1e3, runtime.cycles)
                )
                code_sizes.setdefault(name, []).append(
                    live_code_bytes(runtime)
                )
        pass_setups.append(setup_s)
        passes_s.append(cold_s)
        # Stop when the next pass would end more than a fifth past
        # ``seconds``, so the pass count does not flip with small shifts
        # in machine speed.
        next_end = (perf_counter() - began) * (1 + 1 / len(passes_s))
        if tracer is not None or next_end > 1.2 * seconds:
            break
    result.setup_s = statistics.median(pass_setups)
    result.measured_s = sum(passes_s)
    result.code_bytes = sum(
        statistics.median(sizes) for sizes in code_sizes.values()
    )
    if tracer is not None:
        result.layers = layer_metrics(
            tracer, tally, held, traced_wall, 1,
            copy_cold[True] / copy_cold[False] - 1,
        )
    return result


# ---------------------------------------------------------------------------
# steady-suite
# ---------------------------------------------------------------------------


def _compile_marks(runtime) -> tuple:
    stats = runtime.translate_stats
    return (
        runtime.methods_compiled, runtime.compile_seconds,
        stats["translated"], stats["emit_failed"],
    )


def warm_up(result: Result, benchmark, runtime, doit) -> None:
    """Run until translation promotion is done: a body activated once
    per run is promoted on run ``translate_threshold``, so run past that
    and then until a run compiles and translates nothing new (giving
    up after four times the threshold)."""
    threshold = runtime.translate_threshold
    for runs in range(1, 4 * threshold + 2):
        marks = _compile_marks(runtime)
        check(result, benchmark.name, runtime.run_doit(doit),
              benchmark.expected)
        if runs > threshold and _compile_marks(runtime) == marks:
            return


def steady_suite(
    seed: int, seconds: float, tracer: Optional[LayerTracer] = None,
    programs=STEADY_SUITE,
) -> Result:
    """Warm every program in its own runtime (set-up), then time repeated
    runs in seeded round-robin order for ``seconds``.  A traced run
    times each run twice per round, untraced and traced."""
    table = benchmarks()
    rng = random.Random(seed)
    result = Result()
    order = list(programs)
    rng.shuffle(order)
    prepared = []
    for name in order:
        benchmark = table[name]
        gc.collect()
        started = perf_counter()
        elapsed, runtime, doit = cold_answer(
            result, benchmark, fresh_world(benchmark)
        )
        result.first[name] = [elapsed]
        warm_up(result, benchmark, runtime, doit)
        prepared.append((benchmark, runtime, doit))
        result.setup_s += perf_counter() - started

    runtimes = [runtime for _, runtime, _ in prepared]
    tally = Tally()
    untraced: dict = {}
    traced_wall = 0.0
    rounds = 0
    began = perf_counter()
    while rounds < 3 or perf_counter() - began < seconds:
        rng.shuffle(prepared)
        for index, (benchmark, runtime, doit) in enumerate(prepared):
            for traced in copies(tracer, rounds + index):
                if traced:
                    tracer.unit = f"{benchmark.name}/{rounds}"
                    tally.start([runtime])
                    tracer.enable()
                cycles = runtime.cycles
                started = perf_counter()
                got = runtime.run_doit(doit)
                elapsed = perf_counter() - started
                if traced:
                    tracer.disable()
                    tally.stop([runtime])
                    traced_wall += elapsed
                check(result, benchmark.name, got, benchmark.expected)
                if tracer is not None and not traced:
                    untraced.setdefault(benchmark.name, []).append(
                        elapsed * 1e3
                    )
                    continue
                result.answers.append(Answer(
                    benchmark.name, elapsed * 1e3, runtime.cycles - cycles
                ))
        rounds += 1
    result.measured_s = perf_counter() - began
    result.code_bytes = sum(live_code_bytes(rt) for rt in runtimes)
    if tracer is not None:
        overhead = _geomean_ratio(result.answers, untraced) - 1
        result.layers = layer_metrics(
            tracer, tally, held_state(runtimes), traced_wall, rounds, overhead
        )
    return result


def _geomean_ratio(answers, reference: dict) -> float:
    """Geometric mean over programs of the median ms of ``answers`` over
    the median of ``reference`` (program -> ms list)."""
    by_program: dict = {}
    for answer in answers:
        by_program.setdefault(answer.program, []).append(answer.ms)
    return geomean(
        statistics.median(by_program[name]) / statistics.median(ms)
        for name, ms in reference.items()
    )


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------


def write_targets(mix=SERVE_MIX) -> list:
    """The prototypes the mix's do-its send to (``sieveBench run``), in
    mix order: a write adds a slot to one of them."""
    table = benchmarks()
    return list(dict.fromkeys(
        table[name].run_source.split()[0] for name, _ in mix
    ))


def serve_block(block: int, rng: random.Random, mix=SERVE_MIX) -> list:
    """One block of requests, ``(tenant, program or None, source)``.

    Per tenant: the popularity mix plus one write, which adds a slot to
    a prototype and so invalidates that prototype's customized code.
    Writes cycle through :func:`write_targets` by block and tenant.
    The content depends on ``block`` only; ``rng`` orders it.
    """
    table = benchmarks()
    targets = write_targets(mix)
    requests = []
    for index, tenant in enumerate(TENANTS):
        for name, weight in mix:
            requests += [(tenant, name, table[name].run_source)] * weight
        target = targets[(block + index) % len(targets)]
        requests.append(
            (tenant, None, f"{target} _AddSlot: 'benchTick' Value: {block}")
        )
    rng.shuffle(requests)
    return requests


def build_service(mix=SERVE_MIX):
    """A service whose zygote world holds every program of the mix."""
    from repro.serve.service import Service
    from repro.serve.zygote import Zygote
    from repro.world.bootstrap import World

    table = benchmarks()
    world = World("zygote")
    for source in dict.fromkeys(table[name].setup_source for name, _ in mix):
        world.add_slots(source)
    return Service(zygote=Zygote(world=world))


def serve_mix(
    seed: int, seconds: float, tracer: Optional[LayerTracer] = None,
    mix=SERVE_MIX, min_requests: int = MIN_REQUESTS, setups: int = 9,
) -> Result:
    """One closed-loop client against a four-tenant service.

    Whole blocks run until ``seconds`` have gone by and at least
    ``min_requests`` were served; a traced run serves exactly
    :data:`TRACE_BLOCKS` blocks and traces the even ones."""
    table = benchmarks()
    rng = random.Random(seed)
    result = Result()
    setup_times = []
    for _ in range(setups):
        started = perf_counter()
        service = build_service(mix)
        setup_times.append(perf_counter() - started)
    result.setup_s = statistics.median(setup_times)

    expected = {name: str(table[name].expected) for name, _ in mix}
    first_seen: set = set()
    tally = Tally()
    service_counts = dict.fromkeys(SERVE_COUNTS, 0)
    #: answers after block 0, by traced or not, for the overhead
    compared: dict = {True: [], False: []}
    traced_wall = 0.0
    block = served = 0
    began = perf_counter()
    while True:
        traced = tracer is not None and block % 2 == 0
        for tenant, name, source in serve_block(block, rng, mix):
            runtime = _tenant_runtime(service, tenant)
            cycles = runtime.cycles if runtime is not None else 0
            if traced:
                tracer.unit = f"{served}:{tenant}:{name or 'write'}"
                tally.start(_tenant_runtimes(service))
                counts_before = serve_counts(service.registry)
                tracer.enable()
            started = perf_counter()
            response = service.call(tenant, source)
            elapsed = perf_counter() - started
            if traced:
                tracer.disable()
                tally.stop(_tenant_runtimes(service))
                for key, value in serve_counts(service.registry).items():
                    service_counts[key] += value - counts_before[key]
                traced_wall += elapsed
            served += 1
            if name is None:
                check(result, "write", (response.status, response.value),
                      ("ok", "a " + source.split()[0]))
                result.answers.append(Answer("write", elapsed * 1e3))
                continue
            check(result, name, (response.status, response.value),
                  ("ok", expected[name]))
            runtime = _tenant_runtime(service, tenant)
            answer = Answer(name, elapsed * 1e3, runtime.cycles - cycles)
            result.answers.append(answer)
            if block > 0 and tracer is not None:
                compared[traced].append(answer)
            if (tenant, name) not in first_seen:
                first_seen.add((tenant, name))
                result.first.setdefault(name, []).append(elapsed)
        block += 1
        if tracer is not None:
            if block >= TRACE_BLOCKS:
                break
        elif served >= min_requests and perf_counter() - began >= seconds:
            break
    result.measured_s = perf_counter() - began
    runtimes = _tenant_runtimes(service)
    result.code_bytes = sum(live_code_bytes(rt) for rt in runtimes)
    if tracer is not None:
        untraced: dict = {}
        for answer in compared[False]:
            untraced.setdefault(answer.program, []).append(answer.ms)
        result.layers = layer_metrics(
            tracer, tally, held_state(runtimes), traced_wall, 1,
            _geomean_ratio(compared[True], untraced) - 1, service_counts,
        )
    return result


def serve_counts(registry) -> dict:
    """Shed, retried and quarantined requests so far."""
    return {key: registry.counter(key).value for key in SERVE_COUNTS}


def _tenant_runtime(service, tenant: str):
    record = service.tenants.get(tenant)
    return record.runtime if record is not None else None


def _tenant_runtimes(service) -> list:
    return [record.runtime for record in service.tenants.values()]


WORKLOADS = {
    "cold-suite": cold_suite,
    "steady-suite": steady_suite,
    "serve-mix": serve_mix,
}
