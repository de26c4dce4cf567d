import hashlib
import io
import itertools
import json
import math
import time
from fractions import Fraction

import pytest

from fishlab import burge, cli, fishburn, fixtures, hat, series, verify
from fishlab import sequences as seqs


def run(argv):
    out = io.StringIO()
    args = cli.build_parser().parse_args(argv)
    code = args.func(args, out)
    return code, out.getvalue()


def test_serialize_seq():
    # the comma form starts at n = 10, where an entry can have two digits
    assert cli._line_format(10) % tuple(range(1, 11)) == "1,2,3,4,5,6,7,8,9,10\n"


def test_enumerate_line_is_serialize_seq():
    # enumerate writes a word by a byte translate below n = 10 and by a
    # %-format from n = 10 on; both give the line of its serialization
    for n in range(13):
        w = tuple(range(n, 0, -1))
        line = ("" if n <= 9 else ",").join(map(str, w)) + "\n"
        if n <= 9:
            assert (bytes(w) + b"\0").translate(cli._DIGIT_LINES).decode() == line
        else:
            assert cli._line_format(n) % w == line


# sha256 of the stdout of `enumerate`, run for each d <= 2 (families that
# take one) and each n <= 7 in turn, concatenated; computed before the hat
# tree and the one-write writer replaced the old enumerators and print loop
ENUMERATE_GOLDEN_SHA256 = {
    "dasc": "0eee71e2ab11ace28cf0fd2a55e49228a080c398530c5a0995a542b55af097a3",
    "drsub": "bab6cde5037e53f7332f389773d19938e516257b4064e7611f653f6774e994f5",
    "fishburn": "37e9549edaecda2e7d217be88a51aee49edb0c2933b496e7626b23a2a68d64ac",
    "irsub": "82b9ac013840b02084dd99f7f64fbaacc2b831dcaf0085e484b55faf28c2a197",
    "modasc": "aec13b0a14789c3a2f6308c98d3dca6069e0c8773ac584f4dabb689730cfd78d",
    "modinv": "f40d032b1abdf44d285d41c0bf3a29370543f39c6ec2c6ceea6217bec56efb43",
    "wdesc": "eceb41a518dc222a5b911bacb1aa4c04cd594c655615ddd8d2726cc6814589bf",
}


@pytest.mark.parametrize("family", sorted(ENUMERATE_GOLDEN_SHA256))
def test_enumerate_output_is_pinned(family):
    takes_d = family in ("dasc", "modasc", "fishburn")
    text = ""
    for d_args in [["--d", str(d)] for d in range(3)] if takes_d else [[]]:
        for n in range(8):
            code, out = run(["enumerate", "--family", family, "--n", str(n)] + d_args)
            assert code == 0
            text += out
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATE_GOLDEN_SHA256[family]


# sha256 of the stdout of `enumerate --family F --n N`, run for each d <= 2
# in turn and concatenated (d = 0 alone at n = 9, where d = 1 passes the cost
# cap), for families that take one; computed before words of length <= 9
# went to stdout as bytes.  n = 9 is the last length written as digits run
# together, and n = 10 is written comma-separated
ENUMERATE_LARGE_SHA256 = {
    ("dasc", 0): "6a3cf5192354f71615ac51034b3e97c20eda99643fcaf5bbe6d41ad59bd12167",
    ("drsub", 0): "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    ("fishburn", 0): "6a3cf5192354f71615ac51034b3e97c20eda99643fcaf5bbe6d41ad59bd12167",
    ("irsub", 0): "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    ("modasc", 0): "6a3cf5192354f71615ac51034b3e97c20eda99643fcaf5bbe6d41ad59bd12167",
    ("modinv", 0): "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    ("wdesc", 0): "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    ("dasc", 8): "17492d584bf912cc8b19154810dc7e8453e95380adc055997582e343c06a2656",
    ("drsub", 8): "8a2f3f1f4f2462da680d1431de78f23fcda64a17907eb1dbe1cbd7dfbd6807bf",
    ("fishburn", 8): "01ef85606f938c946eeda15415621c2e2b9e1ea8e412602a40b40cff04bfdde8",
    ("irsub", 8): "d3d251758c9384f897b0f283c83c6d07de3a7ee85e809bf22a2933fd374af69c",
    ("modasc", 8): "633d8409a73a79ad5ebb471bc95fa909efd1c4e0c1fb9a85b21b3e349992ceb2",
    ("modinv", 8): "3dc7296450aa9ddb613d95e9ffb84837bde9f536c9eae66e19314f5bb06cfeed",
    ("wdesc", 8): "33ae75cd20cf8c804cf3d4e673771282163429848a086f77e32fb4b2b1e93306",
    ("dasc", 9): "26df085c24ff57970d79469e8024ff3ec7930562f2b4d20de443def47acbaa02",
    ("fishburn", 9): "b54572714bdaa00d19747aca6f7e6a046ab7fb5c010837aee3d6d07bffebd4bd",
    ("irsub", 9): "512918ddaa3185dcb3cfd566bece0ca283f8988a0bac51ae486ef27cde9e6f82",
    ("modasc", 9): "1e5fcb0ccf020f28e4ba1877c68f2118fa6b645a22e47a7c90f71bf2b698fd80",
    ("drsub", 10): "802f4980a70e5ecec480144f38a9ec54d7aa66b9c7152784806c69502e8584bb",
    ("wdesc", 10): "87c4da282cb29c6f1c71fe70819f9af70664ead452a80bb011e0fc23af9de12d",
}


@pytest.mark.parametrize("family, n", sorted(ENUMERATE_LARGE_SHA256))
def test_enumerate_large_output_is_pinned(family, n):
    ds = range(3) if n != 9 else range(1)
    text = ""
    for d_args in [["--d", str(d)] for d in ds] if family in ("dasc", "modasc", "fishburn") else [[]]:
        code, out = run(["enumerate", "--family", family, "--n", str(n)] + d_args)
        assert code == 0
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATE_LARGE_SHA256[family, n]


# sha256 of the stdout of `verify --suite S --n-max 6 --d-max 2` for each
# suite (350 rows in all), and of `verify --suite all --n-max 4 --d-max 1`;
# computed before the suites became one claim registry
VERIFY_GOLDEN_SHA256 = {
    ("hat", 6, 2): "d57ee92565ff7da769905651d2d09ab1a68d6c471511fa8f16675b90ee4937ba",
    ("orbit", 6, 2): "96c32300d0fd578934b3dec3c909742ebc78e041904656a204d02a809ada7a1c",
    ("stats", 6, 2): "75a643a969f6c1d3c3c780db892e3d57c528da1dadb7d3b2de3b1547f35cf374",
    ("burge", 6, 2): "12e7248392514a1edbfc3efc119092a413862124cd454432496e040097c52e4b",
    ("phi", 6, 2): "8c98f916a3bd33835bc15ce40bd71560ef4e609ce68f68152cd7bcf33a3497e5",
    ("subdiag", 6, 2): "d2a29eeff487b1b86e3f7aa7f9513269eeba26126d5dd8fc75515fd715d702bc",
    ("trees", 6, 2): "39cc58106173b80355b2ed097eb648ef1d1aa33a17b3e90463f6eec214341244",
    ("dyck", 6, 2): "d08a32467b3281282e3da2dc8fcb5c82e57809fa84f204e30fc090bdc19f3bb6",
    ("series", 6, 2): "c62a103bb732cb83213334eb27e0f8d63e64824f411f5638b4c1bc4d8a7fc6f2",
    ("all", 4, 1): "60e9e1353d10771874a2956e57236501213cb36ffe33b7c1551edb3512121225",
}


@pytest.mark.parametrize("suite, n_max, d_max", sorted(VERIFY_GOLDEN_SHA256))
def test_verify_output_is_pinned(suite, n_max, d_max):
    argv = ["verify", "--suite", suite, "--n-max", str(n_max), "--d-max", str(d_max)]
    code, text = run(argv)
    assert code == 0
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == VERIFY_GOLDEN_SHA256[suite, n_max, d_max]


def test_enumerate_dasc():
    code, text = run(["enumerate", "--family", "dasc", "--n", "3", "--d", "0"])
    assert code == 0
    assert text.splitlines() == ["111", "112", "121", "122", "123"]


def test_enumerate_modasc():
    code, text = run(["enumerate", "--family", "modasc", "--n", "2", "--d", "1"])
    assert code == 0
    assert text.splitlines() == ["12", "21"]


def test_enumerate_counts_by_family():
    for family, count in [
        ("modinv", 10),
        ("wdesc", 2),
        ("irsub", 5),
    ]:
        code, text = run(["enumerate", "--family", family, "--n", "3"])
        assert code == 0
        assert len(text.splitlines()) == count


def test_enumerate_fishburn_needs_d():
    code, _ = run(["enumerate", "--family", "fishburn", "--n", "3"])
    assert code == 2


def test_verify_suite_reports():
    code, text = run(["verify", "--suite", "trees", "--n-max", "5", "--d-max", "1"])
    assert code == 0
    rows = [json.loads(line) for line in text.splitlines()]
    assert rows
    for row in rows:
        assert list(row) == list(cli.REPORT_KEYS)
        assert row["pass"] is True


def test_verify_reports_time_in_nanoseconds():
    reports = [
        report for claim in verify.claims_of("trees")
        for report in verify.run_claim(claim, 8, 0)
    ]
    assert reports
    for report in reports:
        assert type(report["elapsed_ns"]) is int and report["elapsed_ns"] >= 0
        assert "elapsed_ms" not in report


def test_verify_output_is_deterministic():
    a = run(["verify", "--suite", "dyck", "--n-max", "5", "--d-max", "2"])
    b = run(["verify", "--suite", "dyck", "--n-max", "5", "--d-max", "2"])
    assert a == b


def test_verify_all_small():
    # at n_max = 0 the tree counts, which start at depth 1, have no point
    for n_max, d_max in (("4", "1"), ("0", "0")):
        code, text = run(["verify", "--suite", "all", "--n-max", n_max, "--d-max", d_max])
        assert code == 0
        assert all(json.loads(line)["pass"] for line in text.splitlines())


def test_verify_names_each_claim_its_grid_leaves_out(capsys):
    # the tree counts start at depth 1: at --n-max 0 only the label
    # isomorphism is checked, and stderr names the two claims left out
    code, text = run(["verify", "--suite", "trees", "--n-max", "0"])
    assert code == 0
    assert [json.loads(line)["check"] for line in text.splitlines()] == [
        "tree-iso-child-multisets"]
    assert capsys.readouterr().err.splitlines() == [
        f"verify: {name} has no row at --n-max 0 --d-max 2"
        for name in ("omega-counts-primitive", "theta-counts-wdesc")
    ]


def test_verify_run_with_no_rows_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(verify, "REGISTRY", [
        claim for claim in verify.REGISTRY if claim.names == ("omega-counts-primitive",)])
    code, text = run(["verify", "--suite", "trees", "--n-max", "0"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err.splitlines() == [
        "verify: omega-counts-primitive has no row at --n-max 0 --d-max 2"]
    assert run(["verify", "--suite", "trees", "--n-max", "1"])[0] == 0


def test_verify_clamps_sizes_to_each_grid():
    # every dyck claim runs at d <= 3, so a larger --d-max changes nothing
    huge = run(["verify", "--suite", "dyck", "--n-max", "3", "--d-max", "1000000"])
    assert huge == run(["verify", "--suite", "dyck", "--n-max", "3", "--d-max", "3"])
    assert huge[0] == 0


def test_verify_failing_claim_exits_1(monkeypatch):
    monkeypatch.setattr(verify, "REGISTRY", list(verify.REGISTRY))

    @verify._claim("series", "one-is-two", verify._fixed((1, None)))
    def _one_is_two(n, d):
        yield "one-is-two", n, d, 1, 2

    code, text = run(["verify", "--suite", "series"])
    assert code == 1
    rows = [json.loads(line) for line in text.splitlines()]
    assert [r["check"] for r in rows if not r["pass"]] == ["one-is-two"]


def test_verify_raising_claim_fails_one_row_and_goes_on(monkeypatch, capsys):
    monkeypatch.setattr(verify, "REGISTRY", list(verify.REGISTRY))

    @verify._claim("series", "raises-at-two", verify._fixed(*((n, None) for n in (1, 2, 3))))
    def _raises_at_two(n, d):
        if n == 2:
            raise ValueError("no two")
        yield "raises-at-two", n, d, True, True

    code, text = run(["verify", "--suite", "series"])
    assert code == 1
    rows = [json.loads(line) for line in text.splitlines()]
    # the rows of the entries before it, and its own, all printed; the
    # raise ends only its point, as one failing row with no traceback
    assert len(rows) > 3
    ours = [r for r in rows if r["check"] == "raises-at-two"]
    assert [(r["n"], r["pass"]) for r in ours] == [(1, True), (2, False), (3, True)]
    assert ours[1]["actual"] == "ValueError: no two"
    assert [r["check"] for r in rows if not r["pass"]] == ["raises-at-two"]
    assert capsys.readouterr().err == ""


def test_phi_claim_names_its_first_counterexample(monkeypatch):
    # a seeded fault: burget's images of length 3 come out reversed
    burget = burge.burget
    monkeypatch.setattr(burge, "burget", lambda c: burget(c)[::-1] if len(c) == 3 else burget(c))
    code, text = run(["verify", "--suite", "phi", "--n-max", "4", "--d-max", "1"])
    assert code == 1
    rows = [json.loads(line) for line in text.splitlines()]
    # [w, phi_d(w, d), burget(hat_d(w, d))] for the first word w it fails on
    assert [(r["check"], r["n"], r["d"], r["actual"]) for r in rows if not r["pass"]] == [
        ("phi-equals-burget-hat", 3, d, [[1, 1, 1], [3, 2, 1], [1, 2, 3]]) for d in (0, 1)]


def test_hat_claims_name_their_first_counterexample(monkeypatch):
    # a seeded fault: hat_d's images of length 3 come out reversed
    hat_d = hat.hat_d
    monkeypatch.setattr(hat, "hat_d", lambda w, d: hat_d(w, d)[::-1] if len(w) == 3 else hat_d(w, d))
    code, text = run(["verify", "--suite", "hat", "--n-max", "4", "--d-max", "1"])
    assert code == 1
    rows = [json.loads(line) for line in text.splitlines()]
    # [w, hat_d(w, d)] for the first word w each boolean check fails on
    assert [(r["check"], r["n"], r["d"], r["actual"]) for r in rows
            if not r["pass"] and r["check"] != "hat-image-equals-recursive"] == [
        ("hat-cayley-nub-max", 3, 0, [[1, 1, 2], [2, 1, 1]]),
        ("hat-last-two-letters", 3, 0, [[1, 1, 2], [2, 1, 1]]),
        ("hat-inv-roundtrip", 3, 0, [[1, 1, 2], [2, 1, 1]]),
        ("hat-last-two-letters", 3, 1, [[1, 1, 1], [1, 2, 3]]),
        ("hat-inv-roundtrip", 3, 1, [[1, 1, 1], [1, 2, 3]]),
    ]


def test_orbit_claims_name_their_first_counterexample(monkeypatch):
    # a seeded fault: the orbit of (1, 2) comes out as that of (1, 1)
    h_orbit = hat.h_orbit
    monkeypatch.setattr(hat, "h_orbit", lambda w: h_orbit((1, 1) if w == (1, 2) else w))
    code, text = run(["verify", "--suite", "orbit", "--n-max", "3"])
    assert code == 1
    rows = [json.loads(line) for line in text.splitlines()]
    # the image and both words whose orbits hold it; [w, image] for hat_inv
    assert [(r["check"], r["n"], r["actual"]) for r in rows if not r["pass"]] == [
        ("orbit-disjoint", 2, [[1, 1], [1, 1], [1, 2]]),
        ("orbit-hatinv-recovers", 2, [[1, 2], [1, 1]]),
    ]


def test_failing_set_report_names_a_witness():
    expected = {(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1)}
    actual = {(1, 2, 3), (2, 3, 1)}
    out = io.StringIO()
    reports = [
        verify._report("x", 3, 0, expected, actual, time.perf_counter_ns()),
        verify._report("x", 3, 0, actual, set(actual), time.perf_counter_ns()),
    ]
    failed = cli._print_reports(reports, out)
    assert failed
    for report in reports:
        assert type(report["elapsed_ns"]) is int and report["elapsed_ns"] >= 0
    bad, good = map(json.loads, out.getvalue().splitlines())
    assert bad["pass"] is False and bad["expected"]["count"] == 5
    # the smallest elements of each set difference, at most verify.WITNESSES
    assert bad["expected"]["witness"] == [[1, 3, 2], [2, 1, 3], [3, 1, 2]]
    assert bad["actual"]["witness"] == [[2, 3, 1]]
    assert good["pass"] is True
    assert list(good["expected"]) == list(good["actual"]) == ["count", "sha256"]


def test_table_jsonl_and_csv_agree():
    code, text = run(["table", "--n-max", "6", "--d-max", "2"])
    assert code == 0
    rows = [json.loads(line) for line in text.splitlines()]
    assert rows[0] == {"d": 0, "n": 0, "count": 1}
    assert {(r["d"], r["n"]): r["count"] for r in rows}[(2, 6)] == 124

    code, text = run(["table", "--n-max", "6", "--d-max", "2", "--format", "csv"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "d,n,count"
    parsed = {
        (int(d), int(n)): int(c)
        for d, n, c in (line.split(",") for line in lines[1:])
    }
    assert parsed == {(r["d"], r["n"]): r["count"] for r in rows}


# sha256 of the stdout of `table` with its default sizes (n <= 12, d <= 5),
# for each format
TABLE_GOLDEN_SHA256 = {
    "jsonl": "881a7e07d655c4eed62eab2e5b5cfa2b078f784f269a4928290c5b2f00bc9ce7",
    "csv": "827b2ce2ff7217ea02bf31080e7fbac5a79ed8d50122ed53ea64dc6b0a39de6d",
}


@pytest.mark.parametrize("fmt", sorted(TABLE_GOLDEN_SHA256))
def test_table_output_is_pinned(fmt):
    code, text = run(["table"] + (["--format", fmt] if fmt != "jsonl" else []))
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_GOLDEN_SHA256[fmt]


def _series_off_at_x4(monkeypatch, delta, bad_d=None):
    """Make series.series_Q's coefficient of x^4 off by delta, at d = bad_d
    or, when bad_d is None, at every d."""
    series_q = series.series_Q

    def one_coefficient_off(d, q, order):
        coeffs = list(series_q(d, q, order).coeffs)
        if order >= 4 and bad_d in (None, d):
            coeffs[4] += delta
        return series.TruncSeries(coeffs, order)

    monkeypatch.setattr(series, "series_Q", one_coefficient_off)


def _failed_rows(name, n_max=math.inf):
    claim = next(c for c in verify.REGISTRY if c.names == (name,))
    return [
        (r["n"], r["d"], r["expected"], r["actual"])
        for r in verify.run_claim(claim, n_max, math.inf) if not r["pass"]
    ]


@pytest.mark.parametrize("bad_d, coeff, count", [(1, 14, 13), (9, 15, 14)])
def test_table_cross_check_fails_on_a_seeded_fault(monkeypatch, bad_d, coeff, count):
    # every d <= 9 is cross-checked: the series coefficient is expected and
    # the enumeration count actual
    _series_off_at_x4(monkeypatch, 1, bad_d)
    assert _failed_rows("table-213-cross-check", n_max=5) == [(4, bad_d, coeff, count)]


@pytest.mark.parametrize("delta", [1, Fraction(1, 2)])
def test_closed_form_and_residual_fail_on_a_seeded_fault(monkeypatch, delta):
    _series_off_at_x4(monkeypatch, delta)
    assert [row[:2] for row in _failed_rows("q0-closed-form")] == [(12, 0)]
    assert [row[:2] for row in _failed_rows("q-algebraic-residual")] == [(12, 1), (12, 2)]


def test_series_claims_fail_on_a_non_integer_coefficient(monkeypatch):
    # int() would truncate 14 + 1/2 to 14, and the rows would pass
    _series_off_at_x4(monkeypatch, Fraction(1, 2))
    assert [row[:2] for row in _failed_rows("table-213-row")] == [
        (12, d) for d in range(6)]
    assert _failed_rows("catalan-convergence") == [(4, 2, 14, Fraction(29, 2))]


def test_table_refuses_a_non_integer_coefficient(monkeypatch, capsys):
    # int() would print 8 for the 17/2 at d = 0, n = 4
    _series_off_at_x4(monkeypatch, Fraction(1, 2))
    argv = ["table", "--n-max", "5", "--d-max", "1", "--format", "csv"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "table: the count at d = 0, n = 4 is 17/2, not an integer"]


def test_explore_conjectures():
    code, text = run(["explore-conjectures", "--n-max", "5"])
    assert code == 0
    rows = [json.loads(line) for line in text.splitlines()]
    assert rows
    assert all(r["exploratory"] for r in rows)


def test_explore_cap():
    code, _ = run(["explore-conjectures", "--n-max", "9"])
    assert code == 2


def test_main_entry_point(capsys):
    assert cli.main(["enumerate", "--family", "dasc", "--n", "2", "--d", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == ["11", "12"]


def test_unknown_subcommand_is_usage_error():
    # the 213 cross-check is the verify claim table-213-cross-check, so
    # table takes no --cross-check
    for argv in (["frobnicate"], ["table", "--cross-check"]):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2


def test_enumerate_fishburn_count_is_fishburn_number():
    code, text = run(["enumerate", "--family", "fishburn", "--n", "5", "--d", "0"])
    assert code == 0
    assert len(text.splitlines()) == 53
    assert math.factorial(5) > 53


@pytest.mark.parametrize("argv", [
    ["table", "--n-max", "-1"],
    ["table", "--d-max", "-2"],
    ["table", "--n-max", "501", "--d-max", "5"],
    ["table", "--n-max", "1", "--d-max", "10000000000"],
    ["verify", "--suite", "series", "--n-max", "-1"],
    ["enumerate", "--family", "dasc", "--n", "-1", "--d", "0"],
    ["enumerate", "--family", "modinv", "--n", "9"],
    ["enumerate", "--family", "fishburn", "--n", "12", "--d", "12"],
    ["enumerate", "--family", "modinv", "--n", "3", "--d", "7"],
    ["enumerate", "--family", "wdesc", "--n", "3", "--d", "0"],
    ["enumerate", "--family", "irsub", "--n", "3", "--d", "1"],
    ["enumerate", "--family", "drsub", "--n", "3", "--d", "2"],
])
def test_usage_errors_exit_2_with_one_line(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_table_cap_bounds_cost_not_n():
    # the table costs about sum over d of max(2, d) n^2 coefficient products
    code, text = run(["table", "--n-max", "40", "--d-max", "5", "--format", "csv"])
    assert code == 0
    assert len(text.splitlines()) == 1 + 6 * 41
    assert cli.table_cost(500, 5) <= cli.TABLE_MAX_COST < cli.table_cost(501, 5)
    for d_max in range(8):
        assert cli.table_cost(7, d_max) == sum(max(2, d) * 49 for d in range(d_max + 1))


# each family's public enumerator, at (n, d)
PUBLIC_ENUMERATORS = {
    "dasc": hat.enumerate_d_asc,
    "modasc": hat.enumerate_mod_d_asc,
    "modinv": lambda n, d: hat.enumerate_modinv(n),
    "wdesc": lambda n, d: hat.enumerate_weak_descent(n),
    "fishburn": fishburn.enumerate_d_fishburn,
    "irsub": lambda n, d: fishburn.enumerate_subdiagonal(n, "increasing-runs"),
    "drsub": lambda n, d: fishburn.enumerate_subdiagonal(n, "decreasing-runs"),
}


# the paper map each fold family folds along its tree, at one d of the
# tree's root range
FOLDED_MAPS = {
    "modasc": hat.hat_d,
    "modinv": hat.hat_d,
    "fishburn": fishburn.phi_d,
    "irsub": lambda w, d: hat.hat_max(w),
    "drsub": lambda w, d: hat.hat_max(w),
}


def test_family_members_from_its_tree_are_its_enumerator():
    # each fold family's members against its map applied to tree_words of
    # the same tree, one image per leaf: on the hat tree, at each d of the
    # root's range [lo, hi] for which the word is a d-ascent sequence
    assert set(PUBLIC_ENUMERATORS) == set(cli.FAMILIES)
    folds = {family for family, (_, _, fold) in cli.FAMILIES.items()
             if fold is not seqs.tree_words}
    assert folds == set(FOLDED_MAPS)
    for family in sorted(folds):
        _, tree, fold = cli.FAMILIES[family]
        for n, d in itertools.product(range(8), range(3)):
            root, rule = tree(n, d)
            words = seqs.tree_words(n, root, rule)
            if rule is hat.hat_tree_children:
                pairs = [(w, e) for w in words for e in range(root[0], root[1] + 1)
                         if seqs.is_d_ascent_seq(w, e)]
            else:
                pairs = [(w, d) for w in words]
            images = {FOLDED_MAPS[family](w, e) for w, e in pairs}
            members = list(map(tuple, fold(n, root, rule)))
            assert members == sorted(images) and len(members) == len(words), (family, n, d)
            assert PUBLIC_ENUMERATORS[family](n, d) == members, (family, n, d)


def test_enumerate_cost_counts_what_enumerate_examines():
    for n in range(8):
        assert cli.enumerate_cost("modinv", n, 0) == len(hat.enumerate_modinv(n))
        for d in range(4):
            members = sum(1 for _ in hat.enumerate_d_asc(n, d))
            for family in ("dasc", "modasc", "fishburn"):
                assert cli.enumerate_cost(family, n, d) == members
        for family in ("wdesc", "irsub", "drsub"):
            _, text = run(["enumerate", "--family", family, "--n", str(n)])
            assert cli.enumerate_cost(family, n, 0) == len(text.splitlines())
    # the largest families at n = 8 hold 8! objects and modinv 84057, inside
    # the bound, and modinv at n = 9 is past it; the bound refuses every
    # family past n = 10, and n = 100 quickly
    assert cli.enumerate_cost("dasc", 8, 100) == math.factorial(8)
    assert cli.enumerate_cost("modinv", 8, 0) == fixtures.MODINV_COUNTS[8]
    assert cli.enumerate_cost("modinv", 9, 0) > cli.ENUMERATE_MAX_COST
    for family, d in itertools.product(cli.FAMILIES, range(12)):
        assert cli.enumerate_cost(family, 11, d) > cli.ENUMERATE_MAX_COST
    assert cli.enumerate_cost("dasc", 100, 0) > cli.ENUMERATE_MAX_COST
    code, _ = run(["enumerate", "--family", "fishburn", "--n", "100", "--d", "0"])
    assert code == 2
    # an unknown family has no tree, rather than the d-ascent one
    with pytest.raises(ValueError):
        cli.enumerate_cost("ascent", 3, 0)
    # and a family is named by a str: a list is no key of the table
    with pytest.raises(ValueError, match="unknown family"):
        cli.enumerate_cost(["dasc"], 3, 0)
