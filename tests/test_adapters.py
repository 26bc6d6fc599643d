from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from aqisim.adapters import aoi_multisource, remote_sampling_family, speed_scaling
from aqisim.greedy import run_online_greedy
from aqisim.model import (
    AqiError,
    CostFamily,
    linear,
    shannon_energy,
    store_instance,
    tabulated,
    validate_instance,
)
from aqisim.oracle import offline_optimal, offline_optimal_binary
from aqisim.reduction import check_guarantee_chain, check_offline_bridge

F = Fraction
SQUARE = CostFamily("power", params=(F(1), F(2)))


# --- multi-source freshness ------------------------------------------------

def reference_setup():
    """Source with events at 1, 3, 4; first two delivered at slots 5 and 7."""
    oracle, inst = aoi_multisource({"s1": [1, 3, 4]}, {"s1": 20}, horizon=10)
    schedule = {"s1e1": 5, "s1e2": 7}
    return oracle, inst, schedule


def test_reference_gains_match_the_sawtooth_areas():
    oracle, _, schedule = reference_setup()
    lag = F(7 - 4)  # age level when the previous delivery lands
    assert oracle.marginal("s1e3", 8, schedule) == 20 - (lag + F(1, 2))
    assert oracle.marginal("s1e3", 9, schedule) == 20 - (2 * lag + 2)


def test_an_events_own_schedule_entry_is_ignored():
    oracle, _, _ = reference_setup()
    gain = oracle.marginal("s1e3", 8, {"s1e2": 5})
    assert gain == F(25, 2) == oracle.marginal("s1e3", 8, {"s1e2": 5, "s1e3": 8})


def test_delivering_before_a_scheduled_older_event_earns_nothing():
    oracle, _, schedule = reference_setup()
    assert oracle.marginal("s1e3", 6, schedule) == 0
    assert oracle.marginal("s1e3", 7, schedule) == 0


def test_older_event_behind_a_scheduled_newer_one_earns_nothing():
    oracle, _, _ = reference_setup()
    schedule = {"s1e3": 6}
    assert oracle.marginal("s1e2", 7, schedule) == 0
    assert oracle.marginal("s1e2", 6, schedule) == 0


def test_first_delivery_pays_the_half_triangle():
    oracle, _, _ = reference_setup()
    # nothing scheduled: delivering the first event at its own slot is free,
    # each slot of waiting costs the growing triangle
    assert oracle.marginal("s1e1", 1, {}) == 20
    assert oracle.marginal("s1e1", 2, {}) == 20 - F(1, 2)
    assert oracle.marginal("s1e1", 3, {}) == 20 - 2


def test_sources_do_not_interact():
    oracle, _, _ = aoi_multisource({"s1": [1], "s2": [2]}, {"s1": 5, "s2": 7}, horizon=6), None, None
    oracle = oracle[0]
    assert oracle.marginal("s2e1", 3, {"s1e1": 4}) == 7 - F(1, 2)


def test_unordered_events_rejected():
    with pytest.raises(AqiError, match="strictly increasing"):
        aoi_multisource({"s1": [3, 1]}, {"s1": 5}, horizon=6)
    with pytest.raises(AqiError, match="strictly within horizon"):
        aoi_multisource({"s1": [6]}, {"s1": 5}, horizon=6)


def test_companion_instance_capacity_via_energy():
    _, inst = aoi_multisource({"s1": [0, 1]}, {"s1": 9}, horizon=4, capacity=1)
    assert validate_instance(inst).ok
    # the second simultaneous transmission is priced out
    assert inst.energy[0].increment(0) == 0
    assert inst.energy[0].increment(1) > 9 * 4
    run = run_online_greedy(inst)
    slots = sorted(b.slot for b in run.allocation.entries.values() if not b.is_discard)
    assert len(slots) == len(set(slots)), "capacity 1 must spread deliveries"


# --- speed scaling ----------------------------------------------------------

def test_split_job_prefers_two_servers():
    inst = speed_scaling([(2, 0)], servers=2, powers=[SQUARE, SQUARE], horizon=2)
    run = run_online_greedy(inst)
    bins = sorted(b.id for b in run.allocation.entries.values())
    assert bins == ["t0s0", "t0s1"]  # marginal 1 + 1 beats 1 + 3
    assert offline_optimal(inst).valuation.total == run.valuation.total


def test_single_server_unit_jobs_reduce_to_the_binary_case():
    inst = speed_scaling([(1, 0), (1, 1)], servers=1, powers=[SQUARE], horizon=3)
    assert inst.is_binary()
    assert offline_optimal_binary(inst).weight == offline_optimal(inst).valuation.total
    assert check_guarantee_chain(inst, check_offline_bridge(inst, offline_optimal(inst))).ok


def test_mandatory_mode_never_discards():
    inst = speed_scaling([(2, 0), (1, 1)], servers=1, powers=[SQUARE], horizon=3)
    opt = offline_optimal(inst)
    assert all(not b.is_discard for b in opt.allocation.entries.values())
    greedy = run_online_greedy(inst)
    assert all(not b.is_discard for b in greedy.allocation.entries.values())


def test_explicit_unit_value_allows_discarding():
    steep = tabulated([0, 50, 200, 500])
    inst = speed_scaling([(3, 0)], servers=1, powers=[steep], horizon=2, unit_value=1)
    opt = offline_optimal(inst)
    assert all(b.is_discard for b in opt.allocation.entries.values())


def test_non_convex_power_curve_rejected():
    concave = tabulated([0, 5, 8])
    with pytest.raises(AqiError, match="not convex"):
        speed_scaling([(2, 0)], servers=1, powers=[concave], horizon=2)


# --- sampling family --------------------------------------------------------

def test_sampling_family_is_deterministic():
    a = remote_sampling_family(2, 2, 5, seed=9)
    b = remote_sampling_family(2, 2, 5, seed=9)
    assert store_instance(a) == store_instance(b)
    c = remote_sampling_family(2, 2, 5, seed=10)
    assert store_instance(a) != store_instance(c)


# SHA-256 of the joined `store_instance` texts of remote_sampling_family(3, 2,
# 8, seed, max_fragments=f, fidelity) over seeds 0:200 and f = 1..5, recorded
# while the family drew its tables with a loop of its own
SAMPLING_FAMILY_SHA256 = {
    "saturating": "4d82dbc377d0ae7d6278f67ef888b4a9d5a7fb5cad2fc371c92887d8f1d0eb65",
    "table": "25be4648edec778a559d82cbd71eb669982ea98a742db9871ea7d7a70eccb490",
}


def test_freshness_and_speed_scaling_instances_match_their_recorded_hash():
    # recorded while `aoi_multisource` summed its energy table and
    # `speed_scaling` took its top energy step by loops of their own
    digest = hashlib.sha256()
    for events, values, horizon, capacity in [
        ({"s1": [1, 3, 4]}, {"s1": 5}, 8, 1), ({"a": [0, 2], "b": [1]}, {"a": F(7, 2), "b": 2}, 5, 2),
        ({"a": [0, 1, 2, 3]}, {"a": 1}, 6, 3), ({"a": []}, {"a": 1}, 3, 1),
        ({"a": [0], "b": [0], "c": [1]}, {"a": 1, "b": 2, "c": 3}, 4, 5),
    ]:
        digest.update(store_instance(aoi_multisource(events, values, horizon, capacity)[1]).encode())
    for jobs, servers, powers, horizon, unit_value in [
        ([(2, 0), (1, 1)], 1, [SQUARE], 4, None), ([(3, 0)], 2, [shannon_energy(), linear(2)], 5, None),
        ([(1, 0)], 1, [linear(1)], 2, 3),
    ]:
        digest.update(store_instance(speed_scaling(jobs, servers, powers, horizon, unit_value)).encode())
    assert digest.hexdigest() == "8a38d28d5a8e5ea381b99fe1f76289c39f2c096d00f1d8b44d3dffe511a4eb33"


@pytest.mark.parametrize("fidelity", sorted(SAMPLING_FAMILY_SHA256))
def test_sampling_family_instances_match_their_recorded_hash(fidelity):
    # the table fidelity shares the generator's tabulated-curve helpers
    digest = hashlib.sha256()
    for seed in range(200):
        for fragments in range(1, 6):
            inst = remote_sampling_family(3, 2, 8, seed, max_fragments=fragments, fidelity=fidelity)
            digest.update(store_instance(inst).encode())
    assert digest.hexdigest() == SAMPLING_FAMILY_SHA256[fidelity]


def test_sampling_family_validates_across_seeds():
    for seed in range(20):
        inst = remote_sampling_family(3, 2, 6, seed=seed,
                                      fidelity=("saturating", "table")[seed % 2])
        assert validate_instance(inst).ok
        assert inst.packets


@pytest.mark.parametrize("sources, samples, horizon, max_fragments", [
    (0, 2, 5, 3), (-1, 2, 5, 3), (2, 0, 5, 3), (2, -2, 5, 3), (2, 2, -1, 3), (2, 2, 5, 0),
])
def test_sampling_family_rejects_counts_that_leave_it_empty(sources, samples, horizon, max_fragments):
    with pytest.raises(AqiError, match="must be >="):
        remote_sampling_family(sources, samples, horizon, seed=0, max_fragments=max_fragments)


def test_sampling_family_rejects_an_unknown_fidelity():
    with pytest.raises(AqiError, match="unknown fidelity shape 'bogus'"):
        remote_sampling_family(2, 2, 5, seed=0, fidelity="bogus")


def test_saturating_fidelity_has_diminishing_integer_steps():
    inst = remote_sampling_family(1, 1, 5, seed=0, fidelity="saturating")
    p = inst.packets[0]
    steps = [p.distortion.increment(i) for i in range(p.subpackets)]
    assert all(a >= b for a, b in zip(steps, steps[1:]))
    assert all(v.denominator == 1 for v in steps)
