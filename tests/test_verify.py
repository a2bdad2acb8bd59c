import numpy as np

from ecatch import verify
from ecatch.clustering import average_linkage_chain, cosine_distances
from ecatch.verify import (
    auc_oracle,
    average_linkage_oracle,
    clustering_oracle,
    decay_weight_properties,
    event_order_invariance,
    grad_check,
    partition_and_scale_invariance,
    reference_agglomerate,
    run_all,
    structural_invariants,
    tc_rotation_invariance,
    window_coverage,
    write_report,
)


def test_reference_agglomerate_singletons_and_full_merge(rng):
    dist = cosine_distances(rng.normal(size=(5, 3)))
    assert reference_agglomerate(dist, 5, "average") == [[i] for i in range(5)]
    assert reference_agglomerate(dist, 1, "complete") == [list(range(5))]


def test_grad_check_fault_injection_points_at_parameter():
    report = grad_check(1, corrupt="lstm.U_f")
    assert report.status == "fail"
    assert report.location.startswith("lstm.U_f")


def test_average_linkage_oracle_refuses_a_partition_that_follows_the_rows(monkeypatch):
    first = {}

    def positional(x, k):  # the partition of the first rows seen, whatever the rows
        return first.setdefault(k, average_linkage_chain(x, k))

    monkeypatch.setattr(verify, "average_linkage_chain", positional)
    report = average_linkage_oracle([0])
    assert report.status == "fail"
    assert report.location == "n=600 k=2 with the rows permuted"


def test_structural_invariants_small_batch():
    assert structural_invariants(50, seed=3).ok


def test_individual_checks_pass():
    assert clustering_oracle(list(range(8))).ok
    assert average_linkage_oracle(list(range(5))).ok
    assert auc_oracle(list(range(10))).ok
    assert partition_and_scale_invariance(list(range(5))).ok
    assert window_coverage(list(range(8))).ok
    assert tc_rotation_invariance(list(range(5))).ok
    assert event_order_invariance(0).ok
    assert decay_weight_properties(list(range(5))).ok


def test_run_all_report_shape(tmp_path):
    reports = run_all([0])
    assert all(r.ok for r in reports)
    names = [r.name for r in reports]
    assert "grad_check" in names
    assert "suite_runtime" in names
    path = tmp_path / "report.json"
    write_report(reports, path)
    import json
    payload = json.loads(path.read_text())
    assert len(payload) == len(reports)
    assert {"name", "status", "worst_error", "location", "seed"} <= set(payload[0])
