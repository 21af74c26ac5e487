"""Release checklist: every row of the reproduction table in
shortpacket.repro, printing the same [PASS]/[FAIL] line as `shortpacket
reproduce-paper`, so a full run reads as a report (the suite runs with -s
for that reason).

The test names predate the table and are kept so each check's history
stays continuous; test_every_row_has_a_test ties them to the table.
"""

from shortpacket.repro import ROWS


def row_test(name):
    fn = dict(ROWS)[name]

    def test():
        ok, detail = fn()
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    test.row = name
    return test


test_01_tdd_operating_point = row_test("tdd-operating-point")
test_02_two_way_min_blocklength = row_test("two-way-min-n")
test_03_two_way_fixed_blocklength = row_test("two-way-fixed-n")
test_04_downlink_strategies = row_test("downlink-strategies")
test_05_aloha_slot_count = row_test("aloha-slot-count")
test_06_awgn_rate_point = row_test("awgn-rate-point")
test_07_convention_sensitivity = row_test("convention-sensitivity")
test_08_outage_round_trips = row_test("outage-round-trip")
test_09_quasi_static_limit = row_test("quasi-static-limit")
test_10_simulators_match_analytics = row_test("sim-analytic-agreement")
test_11_mimo_outage_calibration = row_test("mimo-outage-calibration")
test_12_dmt_exactness = row_test("dmt-exactness")


def test_every_row_has_a_test():
    tested = [f.row for f in globals().values() if hasattr(f, "row")]
    assert tested == [name for name, _ in ROWS]
