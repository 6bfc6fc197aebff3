import numpy as np
import pytest

from structim import DataError, load_network, load_snapshots, load_snapshots_text, write_edge_csv
from structim.generators import barbell


def test_basic_load():
    tn = load_snapshots_text("0,0,1,1.0\n0,1,2,2.0\n1,0,1,3.0\n")
    assert tn.n_snapshots == 2
    assert tn.universe == (0, 1, 2)
    s0 = tn.snapshots[0]
    assert s0.node_ids == (0, 1, 2)
    assert s0.edges == ((0, 1, 1.0), (1, 2, 2.0))
    assert tn.snapshots[1].edges == ((0, 1, 3.0),)


def test_header_is_skipped():
    tn = load_snapshots_text("time,src,dst,value\n0,0,1,1.0\n")
    assert tn.n_snapshots == 1


def test_parallel_records_net_out():
    # same undirected pair in both orders sums; exact zero drops the edge
    tn = load_snapshots_text("0,0,1,1.5\n0,1,0,2.5\n0,2,3,1.0\n0,3,2,-1.0\n")
    s = tn.snapshots[0]
    assert s.node_ids == (0, 1)
    assert s.edges == ((0, 1, 4.0),)
    assert tn.negative_weight_count == 0


def test_negative_net_weight_uses_magnitude_and_counts():
    tn = load_snapshots_text("0,0,1,-2.0\n0,2,3,1.0\n")
    s = tn.snapshots[0]
    weights = {tuple(sorted((s.node_ids[i], s.node_ids[j]))): w for i, j, w in s.edges}
    assert weights[(0, 1)] == 2.0
    assert tn.negative_weight_count == 1


def test_directed_pairs_stay_ordered():
    tn = load_snapshots_text("0,0,1,1.0\n0,1,0,2.0\n", directed=True)
    s = tn.snapshots[0]
    a = s.adjacency()
    i0, i1 = s.node_index[0], s.node_index[1]
    assert a[i0, i1] == 1.0 and a[i1, i0] == 2.0


def test_aggregation_buckets_relative_to_earliest():
    tn = load_snapshots_text("10,0,1,1.0\n11,0,1,1.0\n12,0,1,5.0\n", aggregation=2)
    assert tn.n_snapshots == 2
    assert tn.snapshots[0].edges == ((0, 1, 2.0),)
    assert tn.snapshots[1].edges == ((0, 1, 5.0),)


def test_empty_periods_dropped_and_renumbered():
    tn = load_snapshots_text("0,0,1,1.0\n5,0,1,1.0\n")
    assert tn.n_snapshots == 2
    assert [s.timestamp for s in tn.snapshots] == [0, 1]


def test_iso_dates_become_day_ordinals():
    tn = load_snapshots_text("2021-03-01,0,1,1.0\n2021-03-02,0,1,1.0\n2021-03-04,0,1,1.0\n")
    # three distinct days, one gap -> snapshots renumbered 0..2
    assert tn.n_snapshots == 3
    assert [s.timestamp for s in tn.snapshots] == [0, 1, 2]
    tn2 = load_snapshots_text("2021-03-01,0,1,1.0\n2021-03-02,0,1,1.0\n2021-03-04,0,1,1.0\n", aggregation=2)
    assert tn2.n_snapshots == 2


def test_row_order_does_not_matter():
    a = load_snapshots_text("0,0,1,1.0\n0,1,2,2.0\n1,4,5,1.0\n")
    b = load_snapshots_text("1,4,5,1.0\n0,1,2,2.0\n0,0,1,1.0\n")
    assert a.to_json() == b.to_json()


def test_string_ids_coexist_with_ints():
    tn = load_snapshots_text("0,alice,bob,1.0\n0,1,alice,2.0\n")
    assert tn.universe == (1, "alice", "bob")


def test_malformed_rows_report_line_numbers():
    with pytest.raises(DataError, match=":2"):
        load_snapshots_text("0,0,1,1.0\n0,0,1\n")
    with pytest.raises(DataError, match="not an integer or ISO date"):
        load_snapshots_text("soon,0,1,1.0\n")
    with pytest.raises(DataError, match="not a number"):
        load_snapshots_text("0,0,1,abc\n")
    with pytest.raises(DataError, match="self loop"):
        load_snapshots_text("0,7,7,1.0\n")
    for bad in ("nan", "inf", "-inf", "NaN", "1e999"):
        with pytest.raises(DataError, match=f"^<text>:2: value '{bad}' is not finite$"):
            load_snapshots_text(f"0,a,b,1.0\n0,a,b,{bad}\n")
    with pytest.raises(DataError):
        load_snapshots_text("")  # nothing to build
    with pytest.raises(DataError):
        load_snapshots_text("0,0,1,0.0\n")  # everything nets to zero


@pytest.mark.parametrize("value, net", [("1e308", "inf"), ("-1e308", "-inf")])
def test_pair_netting_to_non_finite_weight_is_a_data_error(value, net):
    text = f"0,c,d,1\n4,a,b,{value}\n4,b,a,{value}\n4,c,d,1\n"
    with pytest.raises(DataError, match=(
        rf"^pair \('a', 'b'\) in the period starting at time 4 nets to non-finite weight {net}$"
    )):
        load_snapshots_text(text, aggregation=2)


def test_aggregation_must_be_positive_int():
    with pytest.raises(ValueError):
        load_snapshots_text("0,0,1,1.0\n", aggregation=0)
    with pytest.raises(ValueError):
        load_snapshots_text("0,0,1,1.0\n", aggregation=1.5)


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError):
        load_snapshots(str(tmp_path / "absent.csv"))


def test_write_then_load_round_trip(tmp_path):
    from structim.generators import repeat_snapshot

    tn = repeat_snapshot(barbell(4, 2, 5), 3)
    path = tmp_path / "net.csv"
    write_edge_csv(tn, str(path))
    back = load_snapshots(str(path))
    assert back.n_snapshots == 3
    for s, t in zip(back.snapshots, tn.snapshots):
        assert np.array_equal(s.adjacency(), t.adjacency())
        assert s.node_ids == t.node_ids


def test_load_network_dispatches_on_extension(tmp_path):
    from structim.generators import repeat_snapshot

    tn = repeat_snapshot(barbell(), 2)
    jpath = tmp_path / "net.json"
    jpath.write_text(tn.to_json())
    back = load_network(str(jpath))
    assert back.n_snapshots == 2
    cpath = tmp_path / "net.csv"
    write_edge_csv(tn, str(cpath))
    assert load_network(str(cpath)).n_snapshots == 2
