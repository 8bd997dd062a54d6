"""Seeded inputs: one seed gives identical inputs, another seed different ones."""

import pytest

import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)
