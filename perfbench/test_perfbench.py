"""Tests of the benchmark itself: the oracle on hand-checked documents,
the generators, and one checked round of every workload at smoke size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy

import pytest

import inputs
import oracle
import queries
import workloads
from inputs import Ancestor, Auction, Curriculum, Hospital, Play

# -- oracle on hand-checked models -------------------------------------------

AUCTION = Auction(persons=["a", "b", "c", "d"],
                  auctions=[("x1", "a", ["b"]), ("x2", "b", ["c"]), ("x3", "d", ["a"])])

#: c4 -> c3 -> c2 -> c4 is a cycle; c2 also requires c1.
CURRICULUM = Curriculum(prerequisites=[[], [0, 3], [1], [2]])

HOSPITAL = Hospital(patients=[
    Ancestor("p1", True, [Ancestor("a0", True),
                          Ancestor("a1", False, [Ancestor("a2", True)])]),
    Ancestor("p2", False),
])


def test_closure_excludes_start_unless_on_a_cycle():
    successors = {1: [2], 2: [3], 3: []}
    assert oracle.closure(1, successors.__getitem__) == {2, 3}
    successors[3] = [1]
    assert oracle.closure(1, successors.__getitem__) == {1, 2, 3}


def test_bidder_network_follows_seller_to_bidder_edges_in_document_order():
    assert oracle.bidder_network(AUCTION, 4) == [
        ("a", "b c"), ("b", "c"), ("c", ""), ("d", "a b c")]
    assert oracle.bidder_network(AUCTION, 2) == [("a", "b c"), ("b", "c")]


def test_dialogs_count_the_alternating_run_after_each_speech():
    play = Play(scenes=[["R", "J", "R", "R", "N"], ["A", "A"]], scenes_per_act=2)
    assert oracle.dialogs(play, 10) == ["3", "2", "1", "2", "1", "1", "1"]
    assert oracle.dialogs(play, 3) == ["3", "2", "1"]


def test_curriculum_reports_seeds_on_a_cycle_last_course_first():
    assert oracle.curriculum(CURRICULUM, 4) == ["c4", "c3", "c2"]
    assert oracle.curriculum(CURRICULUM, 1) == ["c4"]


def test_hospital_counts_diagnosed_ancestors_not_the_patient():
    assert oracle.hospital(HOSPITAL, 2) == [("p1", "2"), ("p2", "0")]


def test_closure_answers_in_document_order():
    assert oracle.closure_answer(CURRICULUM, "prerequisites", "c1") == []
    assert oracle.closure_answer(CURRICULUM, "prerequisites", "c4") == [
        ("course", "c1"), ("course", "c2"), ("course", "c3"), ("course", "c4")]
    assert oracle.closure_answer(HOSPITAL, "parents", "p1") == [
        ("parent", "a0"), ("parent", "a1"), ("parent", "a2")]
    assert oracle.closure_answer(HOSPITAL, "children", "p1") == [
        ("name", ""), ("parent", "a0"), ("name", ""), ("parent", "a1"), ("name", ""),
        ("parent", "a2"), ("name", "")]


def test_read_serialized_takes_name_and_id_of_the_outer_element():
    items = ['<parent id="a1" diagnosed="yes"><name>Ancestor</name><parent id="a2"/></parent>',
             "<name>Ancestor</name>", '<course code="c7"><prerequisites/></course>']
    assert workloads.read_serialized(items) == [("parent", "a1"), ("name", ""), ("course", "c7")]
    with pytest.raises(workloads.WrongAnswer):
        workloads.read_serialized(["42"])


# -- generators ----------------------------------------------------------------


def test_generators_are_fixed_by_the_seed():
    for kind in inputs.URIS:
        assert inputs.make_document(kind, 3)[1] == inputs.make_document(kind, 3)[1]
        assert inputs.make_document(kind, 3)[1] != inputs.make_document(kind, 4)[1]


@pytest.mark.parametrize("seed", range(1, 21))
def test_every_query_class_has_a_nonempty_answer(seed):
    limits = queries.SEED_LIMITS["full"]
    corpus = inputs.make_corpus(inputs.URIS, seed)
    model = {kind: entry[0] for kind, entry in corpus.items()}
    assert any(ids for _, ids in oracle.bidder_network(model["auction"], limits["bidder-network"]))
    assert any(run != "1" for run in oracle.dialogs(model["play"], limits["dialogs"]))
    assert oracle.curriculum(model["curriculum"], limits["curriculum"])
    assert any(count != "0" for _, count in oracle.hospital(model["hospital"], limits["hospital"]))
    for closure in queries.closure_pool("full"):
        assert oracle.closure_answer(model[closure.kind], closure.shape, closure.key)


# -- the program against the oracle ------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_one_checked_round_at_smoke_size(name):
    workload = workloads.make(name, seed=7, size="smoke")
    recorder = workloads.Recorder()
    try:
        workload.setup(recorder)
        traces = workload.round(recorder, trace=True)
    finally:
        workload.close()
    assert len(traces) == len(recorder.query_s) > 0
    assert all(tree is not None for _, tree in traces)


def test_a_wrong_table2_answer_is_caught():
    workload = workloads.make("table2-interp", seed=7, size="smoke")
    try:
        workload.setup(workloads.Recorder())
        patient, count = workload.expected["hospital"][0]
        workload.expected["hospital"][0] = (patient, count + "0")
        with pytest.raises(workloads.WrongAnswer):
            workload.round(workloads.Recorder())
    finally:
        workload.close()


def test_a_stale_closure_answer_is_caught():
    workload = workloads.make("closure-churn", seed=7, size="smoke")
    try:
        workload.setup(workloads.Recorder())
        stale = copy.deepcopy(workload.models["hospital"])
        stale.patients[0].parents.pop()
        workload.models["hospital"] = stale
        with pytest.raises(workloads.WrongAnswer):
            workload.warm(workloads.Recorder())
    finally:
        workload.close()


def test_sql_meter_counts_the_driver_loop_statements_not_the_shred():
    import layers
    from repro.sqlbackend.shredder import SqlDocumentStore
    from repro.xmlio.parser import parse_xml

    with layers.metered_sql():
        workload = workloads.make("table2-sql", seed=7, size="smoke")
        try:
            workload.setup(workloads.Recorder())
            naive = next(op for op in workload.ops
                         if (op.query, op.form) == ("bidder-network", "ifp-naive"))
            with layers.METER.counting():
                workload.run(workloads.Recorder(), naive, {})
        finally:
            workload.close()
        # One fixpoint on the driver loop runs several statements per round.
        assert layers.METER.statements > 3
        assert layers.METER.seconds > 0

        store = SqlDocumentStore()
        try:
            with layers.METER.counting():
                store.shred(parse_xml(workload.texts["auction"],
                                      id_attributes=inputs.ID_ATTRIBUTES))
        finally:
            store.close()
        assert layers.METER.statements == 0
