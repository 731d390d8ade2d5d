"""Smoke-size tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each workload runs on two short programs, so the whole file takes
seconds.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTracer, targets  # noqa: E402

PROGRAMS = ("towers-oo", "sieve")

#: each workload at smoke size: (seed, tracer) -> Result
SMOKE = {
    "cold-suite": lambda seed, tracer=None: workloads.cold_suite(
        seed, 0, tracer, programs=PROGRAMS
    ),
    "steady-suite": lambda seed, tracer=None: workloads.steady_suite(
        seed, 0, tracer, programs=PROGRAMS
    ),
    "serve-mix": lambda seed, tracer=None: workloads.serve_mix(
        seed, 0, tracer, mix=(("sieve", 2), ("towers-oo", 1)),
        min_requests=1, setups=1,
    ),
}

_traced: dict = {}


def traced(workload: str) -> dict:
    """Per-layer metrics of one traced smoke run, computed once."""
    if workload not in _traced:
        _traced[workload] = SMOKE[workload](1, LayerTracer()).layers
    return _traced[workload]


def declared(kind: str) -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("workload", SMOKE)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    result = SMOKE[workload](1)
    assert result.failed == 0 and result.attempted > 0
    assert units(run.end_to_end(result)) == declared("end_to_end")


@pytest.mark.parametrize("workload", SMOKE)
def test_every_per_layer_metric_is_printed_with_its_unit(workload):
    assert units(traced(workload)) == declared("per_layer")


@pytest.mark.parametrize("workload", SMOKE)
def test_layer_self_times_account_for_the_traced_wall_clock(workload):
    value, _ = traced(workload)["trace.attributed_frac"]
    assert 0.97 <= value <= 1.0


def test_modeled_cycles_and_code_size_repeat_exactly():
    first = run.end_to_end(SMOKE["cold-suite"](1))
    second = run.end_to_end(SMOKE["cold-suite"](2))
    for name in ("modeled_mcycles", "code_kb"):
        assert first[name] == second[name]


def test_a_seed_orders_the_same_requests_and_never_changes_the_mix():
    def block(seed):
        return workloads.serve_block(3, random.Random(seed))

    assert block(7) == block(7)
    assert block(7) != block(8)
    assert sorted(block(7), key=repr) == sorted(block(8), key=repr)
    writes = [r for r in block(7) if r[1] is None]
    assert len(writes) == len(workloads.TENANTS)


def test_cold_suite_translates_and_bootstraps():
    layers = traced("cold-suite")
    assert layers["vm.translated"][0] > 0
    assert layers["world.bootstrap_s"][0] > 0


def test_serve_mix_forks_each_tenant_once_and_invalidates():
    layers = traced("serve-mix")
    assert layers["world.forks"][0] == len(workloads.TENANTS)
    assert layers["robustness.invalidations"][0] > 0
    assert layers["compiler.doit_compiles"][0] > 0


def test_steady_suite_timed_phase_neither_compiles_nor_emits():
    layers = traced("steady-suite")
    assert layers["compiler.compile_s"][0] == 0
    assert layers["vm.emit_source_s"][0] == 0
    assert layers["vm.execute_s"][0] > 0


def test_a_wrong_answer_is_counted(monkeypatch):
    table = workloads.benchmarks()
    monkeypatch.setattr(table["sieve"], "expected", -1)
    result = workloads.cold_suite(1, 0, programs=("sieve",))
    assert result.failed == result.attempted == 1


def test_tracing_restores_every_wrapped_entry_point():
    def installed():
        return [owner.__dict__[attr] for owner, attr, _, _ in targets()]

    before = installed()
    tracer = LayerTracer()
    tracer.enable()
    assert installed() != before
    tracer.disable()
    assert installed() == before
