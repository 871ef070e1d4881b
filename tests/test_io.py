"""repro.io: instance exchange formats and the canonical instance key.

The canonical key is the serve layer's cache identity, so its two core
guarantees are pinned here from the io side (and again through
checkkit's ``canonical_key`` metamorphic relation):

* **relabel invariance** — isomorphic twins produced by
  :func:`repro.checkkit.metamorphic.relabel_instance` share a key;
* **content sensitivity** — perturbing the deadline, a table row, an
  op, or an edge delay changes the key.
"""

from __future__ import annotations

import json

import pytest

from repro.checkkit.generators import SPECS, generate, mix_seed
from repro.checkkit.metamorphic import relabel_instance
from repro.errors import GraphError, TableError
from repro.fu.random_tables import random_table
from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG
from repro.io import (
    INSTANCE_SCHEMA_VERSION,
    canonical_instance_dict,
    canonical_order,
    dump,
    dumps_text,
    instance_from_dict,
    instance_from_json,
    instance_key,
    instance_to_dict,
    instance_to_json,
    load,
    loads_text,
)
from repro.suite.registry import PAPER_BENCHMARKS, get_benchmark

from .conftest import make_table


def _instances(count: int = 12):
    """A replayable spread of fuzz instances across every spec family."""
    for i in range(count):
        spec = SPECS[i % len(SPECS)]
        yield generate(spec, mix_seed(7, i))


class TestJsonRoundTrip:
    def test_round_trip_preserves_instance(self):
        for inst in _instances():
            text = instance_to_json(inst.dfg, inst.table, inst.deadline)
            dfg2, table2, deadline2 = instance_from_json(text)
            assert dfg2 == inst.dfg
            assert deadline2 == inst.deadline
            for node in inst.dfg.nodes():
                assert list(table2.times(node)) == list(inst.table.times(node))
                assert list(table2.costs(node)) == list(inst.table.costs(node))

    def test_round_trip_without_table_or_deadline(self, diamond):
        dfg2, table2, deadline2 = instance_from_json(instance_to_json(diamond))
        assert dfg2 == diamond
        assert table2 is None and deadline2 is None

    def test_schema_version_stamped_and_checked(self, diamond):
        doc = instance_to_dict(diamond)
        assert doc["schema_version"] == INSTANCE_SCHEMA_VERSION == 1
        doc["schema_version"] = 99
        with pytest.raises(GraphError, match="schema_version"):
            instance_from_dict(doc)

    def test_invalid_json_is_graph_error(self):
        with pytest.raises(GraphError, match="invalid instance JSON"):
            instance_from_json("{not json")

    def test_orphan_rows_rejected(self, diamond):
        doc = instance_to_dict(diamond, make_table(diamond))
        doc["rows"]["ghost"] = doc["rows"]["a"]
        with pytest.raises(TableError, match="unknown nodes"):
            instance_from_dict(doc)

    def test_malformed_rows_are_table_error(self, diamond):
        doc = instance_to_dict(diamond, make_table(diamond))
        doc["rows"]["a"] = {"times": [1, "x"], "costs": [1.0]}
        with pytest.raises(TableError, match="malformed instance rows"):
            instance_from_dict(doc)


class TestCanonicalKey:
    def test_relabel_invariance(self):
        for i, inst in enumerate(_instances()):
            twin_dfg, twin_table, _ = relabel_instance(
                inst.dfg, inst.table, seed=100 + i
            )
            assert instance_key(
                inst.dfg, inst.table, inst.deadline
            ) == instance_key(twin_dfg, twin_table, inst.deadline)

    def test_insertion_order_irrelevant(self):
        a = DFG.from_edges([("x", "y"), ("y", "z")], name="fwd")
        b = DFG("rev")
        for n in ("z", "y", "x"):
            b.add_node(n, "op")
        b.add_edge("x", "y")
        b.add_edge("y", "z")
        from repro.fu.table import TimeCostTable

        rows = {
            "x": ([1, 3], [8.0, 2.0]),
            "y": ([2, 4], [9.0, 3.0]),
            "z": ([1, 2], [7.0, 1.0]),
        }
        t = TimeCostTable.from_rows(rows)
        assert instance_key(a, t, 10) == instance_key(b, t, 10)

    def test_graph_name_excluded(self, chain3, chain3_table):
        key = instance_key(chain3, chain3_table, 12)
        chain3.name = "something-else"
        assert instance_key(chain3, chain3_table, 12) == key

    def test_deadline_sensitivity(self, chain3, chain3_table):
        assert instance_key(chain3, chain3_table, 12) != instance_key(
            chain3, chain3_table, 13
        )

    def test_table_sensitivity(self, chain3, chain3_table):
        perturbed = chain3_table.with_row(
            "b",
            [t + 1 for t in chain3_table.times("b")],
            list(chain3_table.costs("b")),
        )
        assert instance_key(chain3, chain3_table, 12) != instance_key(
            chain3, perturbed, 12
        )

    def test_op_sensitivity(self):
        a = DFG.from_edges([("u", "v")], name="g")
        b = DFG("g")
        b.add_node("u", "mul")
        b.add_node("v", "op")
        b.add_edge("u", "v")
        t = make_table(a)
        assert instance_key(a, t, 9) != instance_key(b, make_table(b), 9)

    def test_symmetric_graph_canonicalizes(self):
        """4 indistinguishable isolated nodes: the individualization
        search must terminate and stay permutation-stable."""
        keys = set()
        for names in (["a", "b", "c", "d"], ["d", "c", "b", "a"]):
            g = DFG("sym")
            for n in names:
                g.add_node(n, "op")
            rows = {n: ([2, 3, 4], [9.0, 5.0, 1.0]) for n in names}
            from repro.fu.table import TimeCostTable

            keys.add(instance_key(g, TimeCostTable.from_rows(rows), 8))
        assert len(keys) == 1

    def test_canonical_dict_is_label_free(self, chain3, chain3_table):
        doc = canonical_instance_dict(chain3, chain3_table, 12)
        text = json.dumps(doc)
        assert "chain3" not in text
        for node in chain3.nodes():
            assert f'"{node}"' not in text

    def test_canonical_order_is_a_permutation(self):
        for inst in _instances(6):
            order = canonical_order(inst.dfg, inst.table)
            assert sorted(map(str, order)) == sorted(
                str(n) for n in inst.dfg.nodes()
            )


class TestTextFormat:
    def test_text_round_trip(self):
        bench = get_benchmark("elliptic")
        table = random_table(bench.dag(), num_types=3, seed=2004)
        dfg2, table2 = loads_text(dumps_text(bench, table))
        assert dfg2 == bench
        for node in bench.nodes():
            assert list(table2.times(node)) == list(table.times(node))


class TestFileAutoDetect:
    def test_json_by_suffix_and_content(self, tmp_path, chain3, chain3_table):
        p_json = tmp_path / "inst.json"
        dump(str(p_json), chain3, chain3_table, 12)
        dfg2, table2, deadline2 = load(str(p_json))
        assert dfg2 == chain3 and deadline2 == 12

        # same content under a neutral suffix: sniffed from the "{"
        p_any = tmp_path / "inst.data"
        p_any.write_text(p_json.read_text())
        dfg3, _, deadline3 = load(str(p_any))
        assert dfg3 == chain3 and deadline3 == 12

    def test_text_by_default(self, tmp_path, chain3, chain3_table):
        p = tmp_path / "inst.dfg"
        dump(str(p), chain3, chain3_table)
        dfg2, table2, deadline2 = load(str(p))
        assert dfg2 == chain3 and deadline2 is None
        assert list(table2.times("a")) == list(chain3_table.times("a"))


class TestTextRoundtrip:
    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_graph_roundtrip(self, name):
        dfg = get_benchmark(name)
        back, table = loads_text(dumps_text(dfg))
        assert back == dfg
        assert table is None

    def test_table_roundtrip(self):
        dfg = get_benchmark("diffeq")
        table = random_table(dfg, num_types=3, seed=1)
        back, back_table = loads_text(dumps_text(dfg, table))
        assert back == dfg
        assert back_table is not None
        for n in dfg.nodes():
            assert list(back_table.times(n)) == list(table.times(n))
            assert list(back_table.costs(n)) == list(table.costs(n))

    def test_delays_roundtrip(self):
        dfg = get_benchmark("biquad2")
        back, _ = loads_text(dumps_text(dfg))
        assert back == dfg
        assert back.total_delays() == dfg.total_delays()

    def test_file_roundtrip(self, tmp_path):
        dfg = get_benchmark("diffeq")
        table = random_table(dfg, num_types=2, seed=2)
        path = str(tmp_path / "x.dfg")
        dump(path, dfg, table)
        back, back_table, deadline = load(path)
        assert back == dfg
        assert back_table.num_types == 2
        assert deadline is None


class TestTextParsing:
    def test_comments_and_blanks(self):
        dfg, table = loads_text(
            """
            # a comment
            dfg demo

            node a mul   # trailing comment
            edge a b
            """
        )
        assert dfg.name == "demo"
        assert dfg.op("a") == "mul"
        assert dfg.op("b") == "op"  # implicit node
        assert table is None

    def test_edge_with_delay(self):
        dfg, _ = loads_text("edge a b 3")
        assert dfg.edges() == [("a", "b", 3)]

    def test_rows_build_table(self):
        _, table = loads_text("node a\nrow a times 1 2 costs 9 4\n")
        assert table.num_types == 2
        assert table.time("a", 1) == 2


class TestTextErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "bogus directive",
            "dfg",  # missing name
            "node",  # missing id
            "edge a",  # missing dst
            "edge a b x",  # bad delay
            "row a costs 1 times 1",  # sections out of order
            "row a times 1 2 costs 1",  # length mismatch
        ],
    )
    def test_malformed_lines(self, text):
        with pytest.raises(GraphError, match="line 1"):
            loads_text(text)

    def test_rows_disagree_on_types(self):
        with pytest.raises(GraphError, match="FU type count"):
            loads_text(
                "node a\nnode b\n"
                "row a times 1 costs 1\n"
                "row b times 1 2 costs 1 2\n"
            )

    def test_row_for_unknown_node(self):
        with pytest.raises(GraphError, match="unknown nodes"):
            loads_text("node a\nrow a times 1 costs 1\nrow z times 1 costs 1\n")

    def test_missing_rows_for_some_nodes(self):
        with pytest.raises(GraphError, match="missing"):
            loads_text("node a\nnode b\nrow a times 1 costs 1\n")

    def test_dumps_requires_table_coverage(self):
        dfg = DFG.from_edges([("a", "b")])
        table = TimeCostTable.from_rows({"a": ([1], [1.0])})
        with pytest.raises(TableError):
            dumps_text(dfg, table)


class TestTextEndToEnd:
    def test_loaded_graph_synthesizes(self, tmp_path):
        from repro.assign.assignment import min_completion_time
        from repro.synthesis import synthesize

        dfg = get_benchmark("lattice4")
        table = random_table(dfg, num_types=3, seed=3)
        path = str(tmp_path / "l4.dfg")
        dump(path, dfg, table)
        loaded, loaded_table, _ = load(path)
        deadline = min_completion_time(loaded.dag(), loaded_table) + 3
        result = synthesize(loaded, loaded_table, deadline)
        result.verify(loaded.dag(), loaded_table)
