import re
import time

import numpy as np
import pytest

from pnpadmm.fileio import (
    PgmFormatError,
    TraceFormatError,
    load_image,
    parse_config,
    parse_trace,
    read_trace_csv,
    save_image,
    serialize_trace,
    write_config,
    write_trace_csv,
)
from pnpadmm.sequences import ConditionTrace


def make_trace():
    return ConditionTrace(
        deltas=[0.5, 0.3, 0.1],
        rhos=[1.0, 1.2, 1.2],
        sigmas=[0.1, 1.0 / 3.0, 0.09128709291752768],
        fidelity_values=[12.25, 7.5, 1e-17],
        gamma=1.2,
        eta=0.6,
    )


def assert_columns_of(columns, trace):
    assert columns["flags"].dtype == bool
    assert columns["flags"].tolist() == trace.c1.tolist() == [True, False]
    for name in ("deltas", "rhos", "sigmas", "fidelity_values"):
        assert np.array_equal(columns[name], getattr(trace, name))


def test_save_image_refuses_a_non_image(tmp_path):
    path = tmp_path / "none.pgm"
    for shape in [(3,), (0, 2)]:
        with pytest.raises(ValueError, match=re.escape(
                f"pixels must be an (h, w) image with no empty side, got shape {shape}")):
            save_image(np.zeros(shape), path)
    assert not path.exists()


def test_load_image_returns_a_read_only_float64_image(tmp_path):
    path = tmp_path / "one.pgm"
    path.write_bytes(b"P5\n2 1\n255\n\x00\xff")
    img = load_image(path)
    assert type(img) is np.ndarray and img.dtype == np.float64 and img.shape == (1, 2)
    assert not img.flags.writeable


def test_pgm_endpoint_mapping(tmp_path):
    path = tmp_path / "one.pgm"
    path.write_bytes(b"P5\n1 1\n255\n\xff")
    assert load_image(path)[0, 0] == 1.0
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    assert load_image(path)[0, 0] == 0.0


def test_pgm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x00\xff")
    img = load_image(path)
    assert img.shape == (1, 2)
    assert np.array_equal(img, [[0.0, 1.0]])


@pytest.mark.parametrize("header, message", [
    # a comment after the last token is skipped, never read as a token
    (b"P5 #abc", "truncated header"),
    # a # inside a token is part of the token
    (b"P5\n2#x 1\n255\n\x00\x00", "non-numeric header field"),
])
def test_pgm_header_comment_edges(tmp_path, header, message):
    path = tmp_path / "h.pgm"
    path.write_bytes(header)
    with pytest.raises(PgmFormatError, match=message):
        load_image(path)


@pytest.mark.parametrize("sep", [b" ", b"\t", b"\n", b"\r", b"\v", b"\f"])
def test_pgm_header_whitespace_separators(tmp_path, sep):
    path = tmp_path / "ws.pgm"
    path.write_bytes(sep.join([b"P5", b"2", b"1", b"255"]) + sep + b"\x00\xff")
    assert np.array_equal(load_image(path), [[0.0, 1.0]])


def test_pgm_header_with_a_16_mb_comment_loads_in_under_a_second(tmp_path):
    # the header is matched by one pattern, not scanned byte by byte
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n#" + b"x" * (16 << 20) + b"\n2 1\n255\n\x00\xff")
    start = time.perf_counter()
    img = load_image(path)
    assert time.perf_counter() - start < 1.0
    assert np.array_equal(img, [[0.0, 1.0]])


def test_pgm_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(PgmFormatError, match="magic"):
        load_image(path)


def test_pgm_truncated_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(PgmFormatError, match="truncated"):
        load_image(path)


def test_pgm_maxval_out_of_range(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(PgmFormatError, match="maxval"):
        load_image(path)


def test_pgm_scales_by_the_declared_maxval(tmp_path):
    path = tmp_path / "four_bit.pgm"
    path.write_bytes(b"P5\n2 1\n15\n\x0f\x07")
    assert np.array_equal(load_image(path), [[1.0, 7.0 / 15.0]])
    path.write_bytes(b"P5\n2 1\n1\n\x01\x00")
    assert np.array_equal(load_image(path), [[1.0, 0.0]])


def test_pgm_sample_above_maxval(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5\n2 1\n15\n\x0f\xff")
    with pytest.raises(PgmFormatError, match="sample 255 above the declared maxval 15"):
        load_image(path)


def test_pgm_round_trip_quantization(tmp_path):
    rng = np.random.default_rng(149)
    img = rng.uniform(0, 1, (32, 32))
    path = tmp_path / "rt.pgm"
    save_image(img, path)
    back = load_image(path)
    assert back.shape == (32, 32)
    assert np.max(np.abs(back - img)) <= 1.0 / 510.0


def test_pgm_save_clamps(tmp_path):
    path = tmp_path / "clamp.pgm"
    save_image(np.array([[-0.4, 1.7]]), path)
    back = load_image(path)
    assert np.array_equal(back, [[0.0, 1.0]])


def test_trace_round_trip_field_for_field():
    trace = make_trace()
    text = serialize_trace(trace)
    assert text.splitlines()[0] == "iter,delta,rho,sigma,condition,fidelity_value"
    assert [line.split(",")[4] for line in text.splitlines()[1:]] == ["NA", "C1", "C2"]
    assert_columns_of(parse_trace(text), trace)


def test_trace_file_round_trip(tmp_path):
    trace = make_trace()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert_columns_of(read_trace_csv(path), trace)
    # serialization is byte-stable
    write_trace_csv(trace, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_trace_parse_errors_carry_line_numbers():
    trace = make_trace()
    lines = serialize_trace(trace).splitlines()
    lines[2] = "2,0.3,1.2"
    with pytest.raises(TraceFormatError, match="line 3"):
        parse_trace("\n".join(lines))
    lines = serialize_trace(trace).splitlines()
    lines[1] = lines[1].replace("0.5", "abc")
    with pytest.raises(TraceFormatError, match="line 2"):
        parse_trace("\n".join(lines))
    with pytest.raises(TraceFormatError, match="header"):
        parse_trace("a,b\n")


def test_trace_bad_condition_label():
    text = (
        "iter,delta,rho,sigma,condition,fidelity_value\n"
        "1,0.5,1,0.1,C3,0\n"
    )
    with pytest.raises(TraceFormatError, match="condition"):
        parse_trace(text)


@pytest.mark.parametrize(
    "iterations, line",
    [((0, 37, 74), 2), ((1, 2, 2), 4), ((1, 3, 2), 3), ((2, 1, 3), 2)],
)
def test_trace_parse_requires_iterations_one_to_n(iterations, line):
    lines = serialize_trace(make_trace()).splitlines()
    for i, k in enumerate(iterations, start=1):
        lines[i] = f"{k}," + lines[i].split(",", 1)[1]
    with pytest.raises(TraceFormatError, match=f"line {line}: expected iteration"):
        parse_trace("\n".join(lines))


@pytest.mark.parametrize("row, label", [(1, "C1"), (2, "NA"), (3, "NA")])
def test_trace_parse_requires_na_on_the_first_row_alone(row, label):
    lines = serialize_trace(make_trace()).splitlines()
    parts = lines[row].split(",")
    parts[4] = label
    lines[row] = ",".join(parts)
    with pytest.raises(TraceFormatError, match=f"line {row + 1}: condition {label}"):
        parse_trace("\n".join(lines))


def test_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    write_config({"preset": "deblur", "eta": 0.95, "max_iter": 100}, path)
    got = parse_config(path)
    assert got == {"preset": "deblur", "eta": "0.95", "max_iter": "100"}


@pytest.mark.parametrize("value", ["a#b", " a", "a ", "a\nb", "a\rb", "\u00e9"])
def test_write_config_rejects_values_that_do_not_read_back(tmp_path, value):
    path = tmp_path / "c.cfg"
    with pytest.raises(ValueError, match="config value image = "):
        write_config({"preset": "deblur", "image": value}, path)
    assert not path.exists()


def test_config_refuses_a_key_given_twice_under_either_spelling(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("eta = 0.5\n# comment\neta = 0.6\n")
    with pytest.raises(ValueError, match="config line 3: 'eta' repeats 'eta' on line 1"):
        parse_config(path)
    path.write_text("lam = 0.01\nlambda = 0.5\n")
    with pytest.raises(ValueError, match="config line 2: 'lambda' repeats 'lam' on line 1"):
        parse_config(path)


def test_config_comments_and_errors(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# full comment\n eta = 0.5  # trailing\n\nbad line\n")
    with pytest.raises(ValueError, match="line 4"):
        parse_config(path)
    path.write_text("# only comments\n eta = 0.5\n")
    assert parse_config(path) == {"eta": "0.5"}


TRACE_HEADER = "iter,delta,rho,sigma,condition,fidelity_value"
TRACE_ROWS = ("1,0.5,1,0.1,NA,12.25", "2,0.3,1.2,0.3,C1,7.5", "3,0.1,1.2,0.09,C2,0")


@pytest.mark.parametrize(
    "lines, line, message",
    [
        (("iter,delta", *TRACE_ROWS), 1, f"expected header {TRACE_HEADER}"),
        # field count, before anything else on the row
        ((TRACE_HEADER, TRACE_ROWS[0], "2,0.3,1.2", TRACE_ROWS[2]), 3,
         "expected 6 fields, got 3"),
        ((TRACE_HEADER, *TRACE_ROWS[:2], TRACE_ROWS[2] + ",C1"), 4, "expected 6 fields, got 7"),
        # numbers, before the iteration and the label
        ((TRACE_HEADER, "1,abc,1,0.1,NA,12.25", *TRACE_ROWS[1:]), 2,
         "could not convert string to float: 'abc'"),
        ((TRACE_HEADER, TRACE_ROWS[0], "5,0.3,1.2,0.3,C9,", TRACE_ROWS[2]), 3,
         "could not convert string to float: ''"),
        ((TRACE_HEADER, TRACE_ROWS[0], "2.0,0.3,1.2,0.3,C1,7.5", TRACE_ROWS[2]), 3,
         "invalid literal for int() with base 10: '2.0'"),
        # iteration order, before the label
        ((TRACE_HEADER, TRACE_ROWS[0], "3,0.3,1.2,0.3,C9,7.5", TRACE_ROWS[2]), 3,
         "expected iteration 2, got 3"),
        # label, before its placement
        ((TRACE_HEADER, "1,0.5,1,0.1,C3,12.25", *TRACE_ROWS[1:]), 2, "bad condition 'C3'"),
        ((TRACE_HEADER, TRACE_ROWS[0], "2,0.3,1.2,0.3,c1,7.5", TRACE_ROWS[2]), 3,
         "bad condition 'c1'"),
        # NA placement
        ((TRACE_HEADER, TRACE_ROWS[0], "2,0.3,1.2,0.3,NA,7.5", TRACE_ROWS[2]), 3,
         "condition NA at iteration 2: NA belongs to iteration 1 alone"),
        ((TRACE_HEADER, "1,0.5,1,0.1,C2,12.25", *TRACE_ROWS[1:]), 2,
         "condition C2 at iteration 1: NA belongs to iteration 1 alone"),
        # blank lines are skipped but counted: the file line, the trace iteration
        ((TRACE_HEADER, TRACE_ROWS[0], "", "  ", TRACE_ROWS[1], "4,0.1,1.2,0.09,C2,0"), 6,
         "expected iteration 3, got 4"),
        ((TRACE_HEADER, TRACE_ROWS[0], "", "2,0.3,1.2,0.3,X,7.5"), 4, "bad condition 'X'"),
    ],
    ids=[
        "header", "few-fields", "many-fields", "bad-float", "empty-float", "bad-int",
        "iteration", "bad-label", "lower-case-label", "na-late", "na-missing",
        "blank-iteration", "blank-label",
    ],
)
def test_trace_parse_error_message_and_line(lines, line, message):
    with pytest.raises(TraceFormatError) as info:
        parse_trace("\n".join(lines) + "\n")
    assert str(info.value) == f"line {line}: {message}"
    assert info.value.line == line
