"""Tests of the benchmark's own arithmetic: rank evaluator, percentiles, self time.

    python3 -m pytest -q bench/tests
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from adamsrr import expr as E  # noqa: E402
from tracing import self_times, total_times  # noqa: E402
from workloads import (Op, coefficient_sum, monomial_bound,  # noqa: E402
                       nests_tensor_constant, virtual_rank)

RANKS = {"E": 2, "F": 3}.get


def rank_of(name):
    return RANKS(name, 1)


@pytest.mark.parametrize("e, want", [
    (E.Line("A"), 1),
    (E.Bundle("F"), 3),
    (E.UNIT, 1),
    (E.IntConst(-4), -4),
    (E.Sum((E.Bundle("E"), E.Neg(E.Bundle("F")))), -1),
    (E.Tensor((E.Bundle("E"), E.Bundle("F"), E.IntConst(2))), 12),
    (E.Dual(E.Bundle("F")), 3),
    (E.Psi(5, E.Bundle("E")), 2),
    (E.Theta(3, E.Bundle("E")), 9),
    (E.Tau(2, E.Sum((E.Bundle("F"), E.Line("A")))), 16),
    (E.DetClass(E.Bundle("F")), 1),
    (E.Power(E.Bundle("E"), 3), 8),
    (E.Power(E.Line("A"), -2), 1),
    (E.Power(E.Neg(E.Line("A")), -3), -1),
])
def test_virtual_rank_hand_cases(e, want):
    assert virtual_rank(e, rank_of) == want


def test_virtual_rank_refuses_negative_power_of_a_wide_class():
    with pytest.raises(ValueError):
        virtual_rank(E.Power(E.Bundle("E"), -1), rank_of)


def test_monomial_bound_multiplies_through_tensors_and_operators():
    assert monomial_bound(E.Bundle("F"), rank_of) == 3
    assert monomial_bound(E.Theta(3, E.Sum((E.Line("A"), E.Bundle("E")))), rank_of) == 27
    assert monomial_bound(E.Tau(2, E.Power(E.Bundle("E"), 2)), rank_of) == 16
    e = E.Tensor((E.Sum((E.UNIT, E.Bundle("F"))), E.Neg(E.Dual(E.Bundle("E")))))
    assert monomial_bound(e, rank_of) == 8
    assert monomial_bound(E.Power(E.Bundle("E"), -3), rank_of) == 8


def test_nests_tensor_constant_reads_the_shape():
    A, B, two = E.Line("A"), E.Line("B"), E.IntConst(2)
    assert nests_tensor_constant(E.Tensor((E.Tensor((two, A)), B)))
    assert nests_tensor_constant(E.Tensor((E.Neg(E.Tensor((A, E.Neg(two)))), B)))
    assert nests_tensor_constant(E.Psi(2, E.Tensor((E.Sum((E.Tensor((A, B)), two)), A))))
    assert not nests_tensor_constant(E.Tensor((two, E.Tensor((A, B)))))
    assert not nests_tensor_constant(E.Tensor((E.Psi(2, E.Tensor((two, A))), B)))
    assert not nests_tensor_constant(E.Sum((E.Tensor((two, A)), E.Tensor((A, B)))))


@pytest.mark.parametrize("text, want", [
    ("0", 0), ("1", 1), ("1 + L", 2), ("L^2", 1), ("-3", -3),
    ("2*A^2*B - A + 1/2*C", Fraction(3, 2)), ("-E.1*E.2 - 2*E.1^-1", -3),
])
def test_coefficient_sum_reads_the_printed_class(text, want):
    assert coefficient_sum(text) == want


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 90) == 5.0
    assert run.percentile(values, 20) == 1.0
    assert run.percentile(values, 21) == 2.0
    assert run.percentile(list(range(1, 101)), 90) == 90
    assert run.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_pass_counts_whole_rounds_and_times_each_operation():
    class Twice:
        collect_between_ops = True

        def round(self):
            return [Op("ok", lambda: None), Op("known", lambda: "wrong", fault="a fault")]

    done = run.Pass(Twice(), rounds=3)
    assert (done.rounds, done.attempted, done.failed) == (3, 6, 3)
    assert done.unexpected == []
    assert len(done.op_medians) == 2
    assert sorted(done.by_case) == ["known", "ok"]


def test_self_time_subtracts_direct_children_only():
    # 0: a [0, 10]; 1: b [1, 4] under a; 2: c [2, 3] under b; 3: b [5, 9] under a
    names = [0, 1, 2, 1]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    own = self_times(names, starts, ends, parents)
    assert own[0] == pytest.approx(10 - 3 - 4)
    assert own[1] == pytest.approx((3 - 1) + 4)
    assert own[2] == pytest.approx(1)
    assert sum(own.values()) == pytest.approx(10)
    whole = total_times(names, starts, ends)
    assert whole[1] == pytest.approx(7)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS)
