"""Tests of the benchmark itself (not of specsum):

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import re
from pathlib import Path

import pytest

import oracles
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(name, start, end, parent=-1, extra=None):
    return [name, start, end, parent, 0, extra]


def test_self_time_subtracts_children():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 4.0, 0), span("c", 5.0, 6.0, 0),
             span("d", 2.0, 3.0, 1)]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlaps_and_clips():
    # children overlapping each other, and one running past the parent's end
    spans = [span("a", 0.0, 10.0), span("b", 2.0, 5.0, 0), span("c", 4.0, 7.0, 0),
             span("d", 9.0, 12.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_outermost_skips_nested_calls_of_the_same_layer():
    spans = [span("besseltransform.axis", 0, 10), span("besseltransform.bessel", 1, 2, 0),
             span("besseltransform.bessel", 1.2, 1.8, 1), span("testfunctions.phi", 3, 4, 0)]
    assert tracer.outermost(spans, "besseltransform.bessel") == [1]


def test_layer_metrics_cover_the_declared_names():
    spans = [span("kloosterman.ksum", 0, 10), span("numberfield.lattice_enum", 0, 1, 0, 4),
             span("kloosterman.sum", 1, 5, 0), span("numberfield.residue_ring", 1, 1.5, 2, 0),
             span("numberfield.ring_build", 1.5, 3, 2, 7),
             span("kloosterman.sum", 5, 6, 0), span("numberfield.residue_ring", 5, 5.5, 5, 1)]
    m = tracer.layer_metrics(spans, 8)
    filled_by_runner = {"cli.spawn_import_s", "cli.exit2_count", "trace.overhead_frac"}
    assert set(m) | filled_by_runner == set(tracer.LAYER_METRICS)
    assert m["numberfield.ring_builds"] == 1
    assert m["numberfield.ring_residues"] == 7
    assert m["numberfield.residue_ring_reuse_share"] == 0.5
    assert m["numberfield.lattice_points"] == 4
    assert m["kloosterman.sum_self_s"] == pytest.approx((4 - 0.5 - 1.5) + 0.5)
    assert m["kloosterman.ksum_self_s"] == pytest.approx(10 - 1 - 4 - 1)
    assert m["kloosterman.term_us"] == pytest.approx(2.5 / 8 * 1e6)


def test_metric_names_and_units_are_valid():
    for table in (run.END_TO_END, tracer.LAYER_METRICS):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), unit
    assert not set(run.END_TO_END) & set(tracer.LAYER_METRICS)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.LAYER_METRICS
    for m in spec["end_to_end"]:
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_job_lists_depend_only_on_the_seed(name):
    gen = workloads.GENERATORS[name]
    assert gen(3) == gen(3)
    assert gen(3) != gen(4)


def test_ksum_reuse_share_matches_nested_boxes():
    jobs = workloads.ksum_sweep(1)
    mod = workloads.input_properties("ksum-sweep", jobs)["kloosterman_sum_moduli"]
    # inner boxes repeat moduli of the outer one, so the distinct moduli are
    # the points of each field's largest box
    largest = {}
    for j in jobs:
        largest[j["m"]] = max(largest.get(j["m"], 0), j["box"])
    distinct = sum(len(oracles.box_points(m, box)) for m, box in largest.items())
    assert mod["element_reuse_share"] == pytest.approx(1 - distinct / mod["moduli"])
    assert mod["ideal_reuse_share"] >= mod["element_reuse_share"]


def test_scaling_uses_the_mean_of_the_slices_around_a_job():
    # slices at the reference time leave a job's time as it is; slices
    # twice as slow halve it
    assert run.scaled(0.5, run.REF_S, run.REF_S) == pytest.approx(0.5)
    assert run.scaled(0.5, 2 * run.REF_S, 2 * run.REF_S) == pytest.approx(0.25)
    assert run.scaled(0.3, run.REF_S, 3 * run.REF_S) == pytest.approx(0.15)
    jobs = [{"dt": 1.0}, {"dt": 2.0}]
    total = run._scale_jobs(jobs, [(run.REF_S, 3 * run.REF_S),
                                   (3 * run.REF_S, run.REF_S)])
    assert [j["sdt"] for j in jobs] == pytest.approx([0.5, 1.0])
    assert total == pytest.approx(1.5)


def test_reference_slice_is_a_positive_time():
    assert 0 < run.reference_slice() < 10
