import io
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (correlated_logistic_dataset, random_sparse_dataset,
                      synthetic_logistic_dataset, traced_peak)
from flexatc import problem
from flexatc.problem import (
    Dataset,
    ParseError,
    ProblemError,
    ProxSpec,
    logistic_instance,
    parse_libsvm,
    quadratic_from_targets,
    quadratic_instance,
    read_logistic,
    serialize_libsvm,
)
from reference import LogisticLoss, QuadraticLoss, _sigmoid, dense, head, partition, subset


class TestParseLibsvm:
    def test_two_line_example(self):
        ds = parse_libsvm("+1 1:0.5 3:-0.2\n-1 2:1.0\n")
        assert len(ds) == 2
        assert ds.d == 3
        idx0, val0, lab0 = ds.sample(0)
        assert lab0 == 1.0
        assert np.array_equal(idx0, [0, 2])
        assert np.array_equal(val0, [0.5, -0.2])
        idx1, val1, lab1 = ds.sample(1)
        assert lab1 == -1.0
        assert np.array_equal(idx1, [1])

    def test_empty_input(self):
        ds = parse_libsvm("")
        assert len(ds) == 0
        assert ds.d == 0

    def test_blank_lines_skipped(self):
        ds = parse_libsvm("\n+1 1:1.0\n\n-1 1:2.0\n\n")
        assert len(ds) == 2

    def test_malformed_token_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:0.5\n-1 2:oops\n")
        with pytest.raises(ParseError, match="line 1"):
            parse_libsvm("+1 nocolon\n")

    def test_label_handling(self):
        with pytest.raises(ParseError, match="not \\+1/-1"):
            parse_libsvm("0 1:1.0\n")
        # a 0/1 file fails at its first 0 label
        with pytest.raises(ParseError, match="^line 2: label '0' is not \\+1/-1$"):
            parse_libsvm("1 1:1.0\n0 2:2.0\n")

    def test_accepts_bytes(self):
        ds = parse_libsvm(b"+1 1:0.5\n")
        assert len(ds) == 1

    def test_round_trip_bit_exact(self):
        ds = random_sparse_dataset(40, 9, seed=12)
        back = parse_libsvm(serialize_libsvm(ds))
        assert back.d == ds.d
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.indptr, ds.indptr)
        assert np.array_equal(back.indices, ds.indices)
        assert np.array_equal(back.values, ds.values)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_property(self, seed, m, d):
        ds = random_sparse_dataset(m, d, seed=seed, density=0.7)
        back = parse_libsvm(serialize_libsvm(ds))
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.values, ds.values)
        assert np.array_equal(back.indices, ds.indices)

    def test_crlf_and_missing_trailing_newline(self):
        ds = parse_libsvm(b"+1 1:0.5 3:-0.25\r\n-1 2:1e-3\r\n\r\n+1 1:2")
        assert np.array_equal(ds.labels, [1.0, -1.0, 1.0])
        assert np.array_equal(ds.indptr, [0, 2, 3, 4])
        assert np.array_equal(ds.indices, [0, 2, 1, 0])
        assert np.array_equal(ds.values, [0.5, -0.25, 1e-3, 2.0])
        with pytest.raises(ParseError, match="line 3"):
            parse_libsvm("+1 1:0.5\r\n-1 2:1\r\n-1 x\r\n")
        # a bare \r also ends a line, as in str.splitlines()
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:0.5\r-1 2:x")

    def test_label_only_line(self):
        ds = parse_libsvm("+1\n-1 2:0.5\n-1")
        assert np.array_equal(ds.indptr, [0, 0, 1, 1])
        assert ds.d == 2
        assert np.array_equal(parse_libsvm(serialize_libsvm(ds)).indptr, ds.indptr)

    @pytest.mark.parametrize("token, message", [
        ("1:0.5:3", "malformed feature token '1:0.5:3'"),
        ("0:1.0", "index 0 is not 1-based"),
        ("-2:1.0", "index -2 is not 1-based"),
        ("1.5:2", "malformed feature token '1.5:2'"),
        ("1.0:2", "malformed feature token '1.0:2'"),
        ("1e0:2", "malformed feature token '1e0:2'"),
        (":2", "malformed feature token ':2'"),
        ("3:", "malformed feature token '3:'"),
        ("3:nan(1)", "malformed feature token '3:nan\\(1\\)'"),
        ("3:0x10", "malformed feature token '3:0x10'"),
    ])
    def test_bad_feature_token_names_its_line(self, token, message):
        text = f"+1 1:0.5\n-1 2:0.25\n+1 1:1.0 {token} 4:2.0\n-1 3:1.0\n"
        with pytest.raises(ParseError, match=f"line 3: {message}"):
            parse_libsvm(text)

    @pytest.mark.parametrize("label, message", [
        ("1:1", "bad label '1:1'"), ("abc", "bad label 'abc'"),
        ("2", "label '2' is not \\+1/-1"), ("nan", "label 'nan' is not \\+1/-1"),
    ])
    def test_bad_label_names_its_line(self, label, message):
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            parse_libsvm(f"+1 1:0.5\n{label} 2:0.25\n+1 0:1\n")

    def test_first_error_wins_across_blocks(self, monkeypatch):
        # blocks of whole lines: the error line number must count every
        # earlier block, and an earlier error must win over a later one
        monkeypatch.setattr(problem, "_BLOCK_BYTES", 16)
        lines = [f"{'+1' if i % 2 else '-1'} {i % 5 + 1}:{i / 7!r}" for i in range(60)]
        ds = parse_libsvm("\n".join(lines))
        assert len(ds) == 60
        assert np.array_equal(ds.values, [i / 7 for i in range(60)])
        lines[41] += " 7:oops"
        lines[50] = "5 1:1"
        with pytest.raises(ParseError, match="line 42: malformed feature token '7:oops'"):
            parse_libsvm("\n".join(lines))

    def test_exponent_values_round_trip(self):
        text = "+1 4:1e-310 5:-2.5E+300 6:.5 7:5.\n"
        ds = parse_libsvm(text)
        assert np.array_equal(ds.values, [1e-310, -2.5e300, 0.5, 5.0])
        back = parse_libsvm(serialize_libsvm(ds))
        assert np.array_equal(back.values, ds.values)
        assert np.array_equal(back.indices, ds.indices)

    @pytest.mark.parametrize("token, what", [
        ("1:nan", "has a non-finite value"),
        ("1:-NaN", "has a non-finite value"),
        ("1:inf", "has a non-finite value"),
        ("1:-infinity", "has a non-finite value"),
        ("1:1e999", "has a non-finite value"),
        ("9007199254740992:1", "has an index of 2^53 or more"),
        ("9007199254740993:1", "has an index of 2^53 or more"),
        ("100000000000000000000:1", "has an index of 2^53 or more"),
    ])
    def test_unholdable_feature_names_its_line(self, monkeypatch, token, what):
        # a float64 cannot tell 2^53 + 1 from 2^53, and a non-finite value
        # has no margin; an earlier error on the line still wins
        text = f"+1 1:0.5\n-1 2:0.25\n+1 1:1.0 {token} 4:2.0\n-1 3:1.0\n"
        for block_bytes in (7, 16, 64, 1 << 18):
            monkeypatch.setattr(problem, "_BLOCK_BYTES", block_bytes)
            with pytest.raises(ParseError) as exc:
                parse_libsvm(text)
            assert str(exc.value) == f"line 3: feature token {token!r} {what}"
            with pytest.raises(ParseError, match="^line 3: index 0 is not 1-based$"):
                parse_libsvm(text.replace("1:1.0", "0:1.0"))

    @pytest.mark.parametrize("line, token, index", [
        ("+1 1:2 1:3", "1:3", 1),
        ("-1 4:1 2:0.5 3:1 4:2 2:1", "4:2", 4),
    ])
    def test_repeated_index_names_its_line(self, monkeypatch, line, token, index):
        # numpy's scatter keeps the last of two writes to one feature, so a
        # repeat would silently drop the first value
        text = f"+1 1:0.5\n-1 2:0.25\n{line}\n-1 3:1.0 3:2.0\n"
        for block_bytes in (7, 16, 64, 1 << 18):
            monkeypatch.setattr(problem, "_BLOCK_BYTES", block_bytes)
            with pytest.raises(ParseError) as exc:
                parse_libsvm(text)
            assert str(exc.value) == (f"line 3: feature token {token!r} repeats index {index} "
                                      "of its line")

    @pytest.mark.parametrize("case", ["last-value-of-a-long-line", "label-after-3000-lines"])
    def test_bad_number_far_into_its_block(self, monkeypatch, case):
        # the numbers of a block are read in one pass; the token that fails
        # it may sit past every good number of a full block
        good = [f"{'+1' if i % 2 else '-1'} {i % 9 + 1}:{i / 7!r}" for i in range(3000)]
        if case == "last-value-of-a-long-line":
            long = " ".join(f"{j}:{-1 / j!r}" for j in range(1, 3000)) + " 3000:1.5.2"
            assert len(long) > problem._BLOCK_BYTES
            lines = [good[0], "+1 " + long, good[1]]
            want = "line 2: malformed feature token '3000:1.5.2'"
        else:
            lines, want = good + ["1.5.2 1:1", good[0]], "line 3001: bad label '1.5.2'"
        text = "\n".join(lines) + "\n"
        for block_bytes in (16, problem._BLOCK_BYTES):
            monkeypatch.setattr(problem, "_BLOCK_BYTES", block_bytes)
            with pytest.raises(ParseError) as exc:
                parse_libsvm(text)
            assert str(exc.value) == want

    def test_unique_indices_out_of_order_parse(self):
        ds = parse_libsvm("+1 3:1 1:2\n-1 2:1 1:1 3:1\n+1 1:5\n")
        assert ds.indices.tolist() == [2, 0, 1, 0, 2, 0]
        assert ds.values.tolist() == [1.0, 2.0, 1.0, 1.0, 1.0, 5.0]

    def test_largest_exact_index_parses(self):
        ds = parse_libsvm("+1 9007199254740991:1.5\n")
        assert ds.d == 2**53 - 1 and ds.indices.tolist() == [2**53 - 2]

    def test_non_ascii_bytes_raise_parse_error(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:0.5\n-1 2:0.5\u00e9\n".encode())


def _assert_same_dataset(got, want):
    assert got.d == want.d
    for name in ("labels", "indptr", "indices", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestReadLibsvm:
    """parse_libsvm streams its bytes through the block loop read_logistic
    runs on a file; tiny reads put every block boundary inside the text."""

    @pytest.mark.parametrize("data", [
        pytest.param(b"+1 1:0.5\r\n-1 2:0.25 3:1\r\n+1 3:-1\r\n", id="crlf"),
        pytest.param(b"+1 1:0.5\r-1 2:0.25\r\r+1 3:-1\r", id="bare-cr"),
        pytest.param(b"+1 1:0.5\n-1 2:0.25 3:1e-3", id="no-final-newline"),
        pytest.param(b"\n\n+1 1:0.5\n\n\n-1 2:1\n\n", id="blank-lines"),
        pytest.param(b"", id="empty"),
    ])
    def test_file_matches_parse_of_its_bytes(self, monkeypatch, data):
        want = parse_libsvm(data)  # one block: the whole input
        for block_bytes in range(1, len(data) + 2):
            monkeypatch.setattr(problem, "_BLOCK_BYTES", block_bytes)
            _assert_same_dataset(parse_libsvm(data), want)

    def test_crlf_pair_split_by_a_read(self, monkeypatch):
        # the first read ends in the \r of line 1's \r\n, so the \n opens
        # the next read; taken apart, they would end two lines
        data = b"+1 1:0.5\r\n-1 2:0.25\r\nx 1:1\r\n"
        monkeypatch.setattr(problem, "_BLOCK_BYTES", data.index(b"\n"))
        with pytest.raises(ParseError, match="^line 3: bad label 'x'$"):
            parse_libsvm(data)
        _assert_same_dataset(parse_libsvm(data.replace(b"x 1:1\r\n", b"")),
                             parse_libsvm(b"+1 1:0.5\n-1 2:0.25\n"))

    def test_parse_error_line_in_a_later_block(self, monkeypatch):
        lines = [f"{'+1' if i % 2 else '-1'} {i % 5 + 1}:{i / 7!r}" for i in range(60)]
        lines[41] += " 7:oops"
        data = "\n".join(lines).encode()
        with pytest.raises(ParseError) as whole:
            parse_libsvm(data)
        assert str(whole.value) == "line 42: malformed feature token '7:oops'"
        monkeypatch.setattr(problem, "_BLOCK_BYTES", 16)
        with pytest.raises(ParseError) as streamed:
            parse_libsvm(data)
        assert str(streamed.value) == str(whole.value)

    def test_many_blocks_round_trip(self, monkeypatch):
        ds = correlated_logistic_dataset(2_000, 22, seed=1)
        monkeypatch.setattr(problem, "_BLOCK_BYTES", 4096)
        _assert_same_dataset(parse_libsvm(serialize_libsvm(ds).encode()), ds)

    def test_peak_memory_is_the_returned_arrays(self, monkeypatch):
        # 4.7 MB of text parsed in 64 KiB blocks and scattered over 50
        # agents: a second copy of the text or of the samples, or the
        # partition's 50 slices, each adds at least half of what is returned
        data = serialize_libsvm(correlated_logistic_dataset(10_000, 22, seed=0)).encode()
        monkeypatch.setattr(problem, "_BLOCK_BYTES", 1 << 16)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ds = parse_libsvm(data)
            stack = logistic_instance(ds, 50, partition_seed=0, ridge=0.01).stack
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        returned = sum(a.nbytes for a in (ds.labels, ds.indptr, ds.indices, ds.values,
                                          stack.signed, stack.real, stack.m))
        assert peak <= 1.5 * returned


def _assert_same_instance(got, want):
    for name in ("signed", "real", "m"):
        a, b = getattr(got.stack, name), getattr(want.stack, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert (got.L, got.mu, got.stack.ridge) == (want.L, want.mu, want.stack.ridge)
    assert (got.prox.kind, got.prox.weight) == (want.prox.kind, want.prox.weight)


class TestReadLogistic:
    """read_logistic builds from the file what logistic_instance builds from
    parse_libsvm's dataset of its bytes cut to its first max_samples rows;
    tiny reads make samples straddle many blocks."""

    @pytest.mark.parametrize("case", ["cut-before-largest-index", "crlf-and-blank-lines",
                                      "rows-without-features", "uneven-partition"])
    def test_file_path_equals_dataset_path(self, tmp_path, monkeypatch, case):
        lines = serialize_libsvm(random_sparse_dataset(47, 5, seed=3, density=0.5)).splitlines()
        n, keep = 4, None
        newline = "\n"
        if case == "cut-before-largest-index":
            lines[40] += " 9:0.25"  # d is 9, from a sample past the cut
            keep = 30
        elif case == "crlf-and-blank-lines":
            lines = [line + "\r\n" * (i % 3) for i, line in enumerate(lines)]
            newline = "\r\n"
        elif case == "rows-without-features":
            lines[::5] = [line.split()[0] for line in lines[::5]]
        else:
            n, keep = 6, 45  # agents of 7 and 8 samples: padding columns
        data = (newline.join(lines) + newline).encode()
        path = tmp_path / "data.libsvm"
        path.write_bytes(data)
        prox = ProxSpec("l1", 0.05)
        want = logistic_instance(head(parse_libsvm(path.read_bytes()), keep or 47), n, 2, 0.1,
                                 prox)
        if case == "cut-before-largest-index":
            assert want.d == 9 and not want.stack.signed[:, 5:].any()
        if case == "uneven-partition":
            assert set(want.stack.m) == {7, 8}
        for block_bytes in (7, 64, 301, 1 << 18):
            monkeypatch.setattr(problem, "_BLOCK_BYTES", block_bytes)
            _assert_same_instance(read_logistic(path, n, 2, 0.1, prox, keep), want)
            _assert_same_instance(logistic_instance(head(parse_libsvm(path.read_bytes()),
                                                         keep or 47), n, 2, 0.1, prox), want)

    @pytest.mark.parametrize("data", [
        b"+1 1:0.5\r\n-1 2:0.25 3:1\r\n\r\n+1 3:-1",
        b"+1 1:0.5\r-1\r\r \t \r+1 3:-1\r",
        b"\v+1 1:0.5\f-1 2:1\x1c\x1d\x1e\t\x1f\n-1\n",
        b"  \n\t\n",
        b"",
    ])
    def test_count_is_the_parsers_samples_and_features(self, monkeypatch, data):
        ds = parse_libsvm(data)
        for block_bytes in range(1, len(data) + 2):
            monkeypatch.setattr(problem, "_BLOCK_BYTES", block_bytes)
            stream = io.BytesIO(data)
            assert problem._count(stream) == len(ds)
            assert stream.tell() == 0

    def test_repeated_index_is_a_parse_error(self, tmp_path, monkeypatch):
        path = tmp_path / "data.libsvm"
        path.write_text("+1 1:0.5\n-1 2:0.25 1:1\n+1 2:1 1:2 2:3\n-1 3:1\n")
        for block_bytes in (7, 64, 1 << 18):
            monkeypatch.setattr(problem, "_BLOCK_BYTES", block_bytes)
            with pytest.raises(ParseError,
                               match="^line 3: feature token '2:3' repeats index 2 of its line$"):
                read_logistic(path, 2, 0, 0.1)

    def test_parse_error_comes_before_the_split_error(self, tmp_path, monkeypatch):
        # 3 samples cannot be split across 5 agents, and -1 is no ridge, but
        # the malformed token deep in the file is what the reader reports
        lines = ["+1 1:0.5", "", "-1 2:0.25", "+1 1:-1 2:1 3:oops"]
        path = tmp_path / "data.libsvm"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(problem, "_BLOCK_BYTES", 8)
        with pytest.raises(ParseError, match="^line 4: malformed feature token '3:oops'$"):
            read_logistic(path, 5, 0, 0.1)
        with pytest.raises(ParseError, match="^line 4: malformed feature token '3:oops'$"):
            read_logistic(path, 2, 0, -1.0)
        path.write_text("\n".join(lines[:3]) + "\n")
        with pytest.raises(ProblemError, match="^cannot split 2 samples across 5 agents$"):
            read_logistic(path, 5, 0, 0.1)
        with pytest.raises(ProblemError, match="^ridge must be nonnegative$"):
            read_logistic(path, 2, 0, -1.0)

    @pytest.mark.parametrize("token", ["2:nan", "2:-inf", "9007199254740993:1"])
    def test_unholdable_feature_raises_before_the_split_error(self, tmp_path, monkeypatch,
                                                               token):
        path = tmp_path / "data.libsvm"
        path.write_text(f"+1 1:0.5\n-1 2:0.25\n+1 1:1 {token}\n")
        for block_bytes in (8, 1 << 18):
            monkeypatch.setattr(problem, "_BLOCK_BYTES", block_bytes)
            with pytest.raises(ParseError, match=f"^line 3: feature token '{token}' has "):
                read_logistic(path, 2, 0, 0.1, max_samples=2)
            with pytest.raises(ParseError, match=f"^line 3: feature token '{token}' has "):
                read_logistic(path, 5, 0, 0.1)

    def test_unreadable_path_raises_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_logistic(tmp_path / "missing", 2, 0, 0.1)
        with pytest.raises(IsADirectoryError):
            read_logistic(tmp_path, 2, 0, 0.1)

    def test_unallocatable_gram_is_a_problem_error(self, tmp_path, monkeypatch):
        # the stack holds, and the Gram step's refusal, which a real file
        # shows only with an index near 10^6, is reported as the stack's
        def refuse(gram):
            raise MemoryError
        monkeypatch.setattr(problem, "_power_iteration_lmax", refuse)
        path = tmp_path / "data.libsvm"
        path.write_text("+1 1:0.5\n-1 2:0.25\n+1 3:1\n")
        with pytest.raises(ProblemError, match=r"^cannot allocate the feature stack of shape "
                                               r"\(3, 3, 1\) and its Gram matrices$"):
            read_logistic(path, 3, 0, 0.1)

    def test_peak_memory_is_near_the_stack(self, tmp_path):
        # the 49,950 x 22 replica size over 50 agents in the default blocks:
        # the dataset path holds the CSR arrays as well, about 3.4 stacks
        ds = correlated_logistic_dataset(49_950, 22, seed=0)
        path = tmp_path / "data.libsvm"
        rows = np.column_stack((ds.labels, ds.values.reshape(-1, 22)))
        np.savetxt(path, rows, fmt="%+d " + " ".join(f"{j + 1}:%.17g" for j in range(22)))
        del ds, rows
        inst, peak = traced_peak(lambda: read_logistic(path, 50, 0, 0.01, max_samples=49_950))
        stack = inst.stack
        assert peak <= 1.75 * sum(a.nbytes for a in (stack.signed, stack.real, stack.m))


def _dense_by_rows(ds):
    x = np.zeros((len(ds), ds.d))
    for i in range(len(ds)):
        idx, vals, _ = ds.sample(i)
        x[i, idx] = vals
    return x


class TestDatasetArrays:
    def test_dense_and_subset_match_row_loops(self):
        ds = random_sparse_dataset(57, 9, seed=5, density=0.5)
        ds.values[3] = np.nan
        assert np.array_equal(dense(ds), _dense_by_rows(ds), equal_nan=True)
        rows = np.random.default_rng(2).permutation(57)[:20]
        sub = subset(ds, rows)
        for out_i, i in enumerate(rows):
            for a, b in zip(sub.sample(out_i), ds.sample(i)):
                assert np.array_equal(a, b, equal_nan=True)

    def test_empty_subset(self):
        ds = random_sparse_dataset(5, 3, seed=1)
        empty = subset(ds, np.array([], dtype=int))
        assert len(empty) == 0 and dense(empty).shape == (0, 3)

    def test_head_keeps_the_whole_dataset(self):
        ds = random_sparse_dataset(12, 4, seed=2)
        for m in (len(ds), len(ds) + 5):
            first = head(ds, m)
            assert first.d == ds.d
            for name in ("labels", "indptr", "indices", "values"):
                assert np.array_equal(getattr(first, name), getattr(ds, name))
        first = head(ds, 7)
        assert np.array_equal(first.labels, ds.labels[:7])
        assert np.array_equal(first.indptr, ds.indptr[:8])


class TestPartition:
    def test_even_split(self):
        ds = random_sparse_dataset(10, 4, seed=0)
        parts = partition(ds, 2, seed=1)
        assert [len(p) for p in parts] == [5, 5]

    def test_sizes_differ_by_at_most_one(self):
        ds = random_sparse_dataset(23, 4, seed=0)
        sizes = [len(p) for p in partition(ds, 5, seed=2)]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1

    def test_union_preserved(self):
        ds = random_sparse_dataset(17, 3, seed=3)
        parts = partition(ds, 4, seed=9)
        seen = sorted(
            (tuple(p.sample(i)[0]), tuple(p.sample(i)[1]), p.sample(i)[2])
            for p in parts
            for i in range(len(p))
        )
        want = sorted(
            (tuple(ds.sample(i)[0]), tuple(ds.sample(i)[1]), ds.sample(i)[2])
            for i in range(len(ds))
        )
        assert seen == want

    def test_deterministic(self):
        ds = random_sparse_dataset(30, 5, seed=4)
        a = partition(ds, 7, seed=11)
        b = partition(ds, 7, seed=11)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.labels, pb.labels)
            assert np.array_equal(pa.values, pb.values)

    def test_too_many_agents(self):
        ds = random_sparse_dataset(3, 2, seed=5)
        with pytest.raises(ProblemError):
            partition(ds, 4, seed=0)


class TestGradients:
    def test_quadratic_zero_target(self):
        loss = QuadraticLoss(np.zeros(3))
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(loss.grad(v), v)

    def test_logistic_single_sample_at_origin(self):
        # one sample X = e_1, Y = +1, no ridge: gradient at 0 is -e_1 / 2
        loss = LogisticLoss(np.array([[1.0, 0.0]]), np.array([1.0]))
        assert np.allclose(loss.grad(np.zeros(2)), [-0.5, 0.0], atol=1e-15)

    @pytest.mark.parametrize("variant", ["quadratic", "logistic"])
    def test_finite_difference_agreement(self, variant):
        rng = np.random.default_rng(21)
        if variant == "quadratic":
            loss = QuadraticLoss(rng.standard_normal(6), np.geomspace(0.5, 3.0, 6))
        else:
            ds = synthetic_logistic_dataset(40, 6, seed=2)
            loss = LogisticLoss.from_dataset(ds, ridge=0.05)
        h = 1e-6
        for _ in range(50):
            x = rng.standard_normal(6)
            g = loss.grad(x)
            fd = np.empty(6)
            for j in range(6):
                e = np.zeros(6)
                e[j] = h
                fd[j] = (loss.value(x + e) - loss.value(x - e)) / (2.0 * h)
            denom = max(np.linalg.norm(g), 1e-8)
            assert np.linalg.norm(fd - g) / denom <= 1e-6

    def test_dimension_mismatch(self):
        loss = QuadraticLoss(np.zeros(3))
        with pytest.raises(ProblemError):
            loss.grad(np.zeros(4))


class TestProx:
    def test_soft_threshold_example(self):
        prox = ProxSpec("l1", 0.1)
        assert prox.apply(np.array([0.5]), alpha=1.0)[0] == pytest.approx(0.4)
        assert prox.apply(np.array([-0.5]), alpha=1.0)[0] == pytest.approx(-0.4)

    def test_zero_is_fixed(self):
        prox = ProxSpec("l1", 0.3)
        assert np.array_equal(prox.apply(np.zeros(4), alpha=2.0), np.zeros(4))

    def test_none_is_identity(self):
        v = np.array([1.0, -2.0])
        assert np.array_equal(ProxSpec().apply(v, alpha=0.7), v)

    def test_nonexpansive_over_random_pairs(self):
        rng = np.random.default_rng(31)
        prox = ProxSpec("l1", 0.2)
        for _ in range(100):
            u, v = rng.standard_normal((2, 8))
            du = prox.apply(u, 0.5) - prox.apply(v, 0.5)
            assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-12

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.01, 5.0), st.floats(0.01, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_soft_threshold_nonexpansive_and_shrinking(self, a, b, weight, alpha):
        prox = ProxSpec("l1", weight)
        pa = prox.apply(np.array([a]), alpha)[0]
        pb = prox.apply(np.array([b]), alpha)[0]
        assert abs(pa - pb) <= abs(a - b) + 1e-12
        assert abs(pa) <= abs(a)

    def test_invalid_specs(self):
        with pytest.raises(ProblemError):
            ProxSpec("l1", 0.0)
        with pytest.raises(ProblemError):
            ProxSpec("l2", 1.0)
        with pytest.raises(ProblemError):
            ProxSpec().apply(np.zeros(2), alpha=0.0)


class TestConstants:
    def test_unit_quadratic(self):
        loss = QuadraticLoss(np.zeros(4))
        assert loss.constants() == (1.0, 1.0)

    def test_logistic_single_sample(self):
        # 1x1 Gram is 1, so L = 1/4 + ridge
        loss = LogisticLoss(np.array([[1.0]]), np.array([1.0]), ridge=0.01)
        big_l, mu = loss.constants()
        assert big_l == pytest.approx(0.25 + 0.01, abs=1e-9)
        assert mu == 0.01

    def test_logistic_without_ridge_is_merely_convex(self):
        ds = synthetic_logistic_dataset(30, 4, seed=3)
        loss = LogisticLoss.from_dataset(ds, ridge=0.0)
        assert loss.constants()[1] == 0.0

    def test_power_iteration_matches_lapack(self):
        ds = synthetic_logistic_dataset(60, 5, seed=4)
        loss = LogisticLoss.from_dataset(ds, ridge=0.0)
        gram = loss.features.T @ loss.features / (4.0 * loss.m)
        assert loss.constants()[0] == pytest.approx(np.linalg.eigvalsh(gram)[-1], rel=1e-7)

    def test_common_constants_max_min(self):
        inst = quadratic_from_targets(np.zeros((2, 2)), np.array([[0.5, 2.0], [1.0, 3.0]]))
        assert (inst.L, inst.mu) == (3.0, 0.5)

    def test_smoothness_bounds_lipschitz_ratio(self):
        rng = np.random.default_rng(41)
        ds = synthetic_logistic_dataset(50, 5, seed=6)
        loss = LogisticLoss.from_dataset(ds, ridge=0.02)
        big_l = loss.constants()[0]
        for _ in range(100):
            x, y = rng.standard_normal((2, 5))
            num = np.linalg.norm(loss.grad(x) - loss.grad(y))
            assert num <= big_l * np.linalg.norm(x - y) * (1.0 + 1e-9)


class TestInstances:
    def test_quadratic_instance_kappa(self):
        inst = quadratic_instance(4, 6, seed=0, curvature_min=0.01, curvature_max=1.0)
        assert inst.L == pytest.approx(1.0)
        assert inst.mu == pytest.approx(0.01)
        assert inst.n == 4

    def test_targets_keep_the_per_agent_draw_order(self):
        # one (n, d) draw reads the seeded stream as n draws of d did
        inst = quadratic_instance(4, 3, seed=7, target_scale=2.0, target_offset_scale=0.5)
        rng = np.random.default_rng(7)
        offset = 0.5 * rng.standard_normal(3)
        want = np.stack([offset + 2.0 * rng.standard_normal(3) for _ in range(4)])
        assert np.array_equal(inst.stack.targets, want)

    @pytest.mark.parametrize("targets,curvatures,message", [
        (np.zeros((2, 3)), np.ones((2, 2)), "shapes differ"),
        (np.zeros((2, 3)), np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]), "positive"),
        (np.zeros((2, 3)), np.full((2, 3), np.nan), "positive"),
        (np.zeros((2, 0)), None, "nonempty"),
        (np.zeros(3), None, "nonempty"),
    ])
    def test_quadratic_from_targets_rejects(self, targets, curvatures, message):
        with pytest.raises(ProblemError, match=message):
            quadratic_from_targets(targets, curvatures)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_quadratic_inputs_are_rejected(self, bad):
        targets = np.zeros((2, 3))
        targets[1, 2] = bad
        with pytest.raises(ProblemError, match="target entries must be finite"):
            quadratic_from_targets(targets)
        curvatures = np.ones((2, 3))
        curvatures[0, 1] = bad
        with pytest.raises(ProblemError, match="curvature entries must be positive and finite"):
            quadratic_from_targets(np.zeros((2, 3)), curvatures)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProblemError, match="target entries must be finite"):
                quadratic_instance(3, 2, seed=0, target_scale=bad)
            with pytest.raises(ProblemError, match="curvature_max < inf"):
                quadratic_instance(3, 2, seed=0, curvature_max=abs(bad))

    def test_logistic_instance_rejects_negative_ridge(self):
        ds = synthetic_logistic_dataset(10, 3, seed=0)
        with pytest.raises(ProblemError, match="ridge must be nonnegative"):
            logistic_instance(ds, 2, partition_seed=0, ridge=-0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_logistic_instance_rejects_non_finite_values(self, bad):
        ds = synthetic_logistic_dataset(10, 3, seed=0)
        ds.values[4] = bad
        with pytest.raises(ProblemError, match="^feature values must be finite$"):
            logistic_instance(ds, 2, partition_seed=0, ridge=0.01)

    @pytest.mark.parametrize("labels,indptr,indices,values,message", [
        ([1.0, -1.0], [0, 1, 2], [-1, 0], [2.0, 1.0], r"feature indices must lie in \[0, 3\)"),
        ([1.0, -1.0], [0, 1, 2], [5, 0], [2.0, 1.0], r"feature indices must lie in \[0, 3\)"),
        ([1.0, 0.5], [0, 1, 2], [2, 0], [2.0, 1.0], r"labels must be \+1 or -1"),
        ([1.0, -1.0], [0, 2, 1], [2, 0], [2.0, 1.0], "indptr must run without decreasing"),
        ([1.0, -1.0], [1, 1, 2], [2, 0], [2.0, 1.0], "indptr must run without decreasing"),
        ([1.0, -1.0], [0, 1, 1], [2, 0], [2.0, 1.0], "indptr must run without decreasing"),
        ([1.0, -1.0], [0, 2], [2, 0], [2.0, 1.0], "indptr must run without decreasing"),
        ([1.0, -1.0], [0, 1, 2], [2, 0], [2.0], "feature indices and values differ in length"),
        # the parser's rule for a line: a scatter would keep the last value
        ([1.0, -1.0], [0, 2, 2], [0, 0], [2.0, 3.0], "^sample 0 repeats feature index 0$"),
        ([1.0, -1.0], [0, 1, 4], [2, 2, 0, 2], [1.0, 2.0, 3.0, 4.0],
         "^sample 1 repeats feature index 2$"),
        ([1.0, -1.0], [0, 3, 5], [2, 0, 1, 1, 1], [1.0, 2.0, 3.0, 4.0, 5.0],
         "^sample 1 repeats feature index 1$"),
    ], ids=["negative-index", "index-past-d", "label-0.5", "decreasing-indptr",
            "indptr-from-1", "indptr-short-of-pairs", "indptr-too-few-entries", "values-short",
            "repeated-index", "repeated-index-out-of-order", "repeated-index-in-next-sample"])
    def test_logistic_instance_rejects_a_malformed_dataset(self, labels, indptr, indices,
                                                            values, message):
        ds = Dataset(3, np.array(labels), np.array(indptr), np.array(indices), np.array(values))
        with pytest.raises(ProblemError, match=message):
            logistic_instance(ds, 2, partition_seed=0, ridge=0.01)

    def test_logistic_instance_needs_a_sample_per_agent(self):
        ds = random_sparse_dataset(3, 2, seed=5)
        with pytest.raises(ProblemError, match="cannot split 3 samples across 4 agents"):
            logistic_instance(ds, 4, partition_seed=0, ridge=0.0)

    def test_logistic_instance_needs_positive_smoothness(self):
        # samples without features and no ridge: every L_i is 0
        ds = Dataset(2, np.array([1.0, -1.0]), np.zeros(3, dtype=int),
                     np.zeros(0, dtype=int), np.zeros(0))
        with pytest.raises(ProblemError, match="smoothness constant must be positive"):
            logistic_instance(ds, 2, partition_seed=0, ridge=0.0)

    def test_logistic_instance_needs_a_feature(self):
        # a file of labels alone parses to d = 0; with a ridge every L_i is
        # positive, so only the dimension is wrong
        ds = parse_libsvm("+1\n-1\n+1\n-1\n")
        assert ds.d == 0
        with pytest.raises(ProblemError, match="^need at least one feature$"):
            logistic_instance(ds, 2, partition_seed=0, ridge=0.01)

    def test_objective_and_mean_grad(self):
        inst = quadratic_instance(3, 2, seed=1)
        losses = _quadratic_references(inst)
        point = np.zeros(2)
        manual = sum(l.value(point) for l in losses) / 3.0
        assert inst.objective(point) == pytest.approx(manual)
        manual_g = sum(l.grad(point) for l in losses) / 3.0
        assert np.allclose(inst.mean_grad(point), manual_g)


def _quadratic_references(inst):
    stack = inst.stack
    return [QuadraticLoss(b, h) for b, h in zip(stack.targets, stack.curvatures)]


def _logistic_references(ds, n, partition_seed, ridge):
    return [LogisticLoss.from_dataset(s, ridge) for s in partition(ds, n, partition_seed)]


def _masked_sigmoid(t):
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestStackedOracles:
    def test_sigmoid_matches_masked_form_bitwise(self):
        t = np.array([0.0, -0.0, 1e-300, -1e-300, 750.0, -750.0, 36.9, -36.9, 1.0, -1.0])
        t = np.concatenate([t, np.random.default_rng(3).standard_normal(1000) * 40])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(t)
        assert np.array_equal(got.view(np.int64), _masked_sigmoid(t).view(np.int64))

    @pytest.mark.parametrize("scale", [1.0, 50.0, 750.0])
    def test_logistic_stack_matches_per_agent_losses(self, scale):
        # 103 samples over 10 agents: partitions of 10 and 11 rows, so the
        # stack carries padding columns
        ds = synthetic_logistic_dataset(103, 6, seed=13)
        inst = logistic_instance(ds, 10, partition_seed=4, ridge=0.05,
                                 prox=ProxSpec("l1", 0.1))
        losses = _logistic_references(ds, 10, partition_seed=4, ridge=0.05)
        assert {loss.m for loss in losses} == {10, 11}
        rng = np.random.default_rng(8)
        x = rng.standard_normal((10, 6))
        margins = np.concatenate([l.labels * (l.features @ x[i]) for i, l in enumerate(losses)])
        x *= scale / np.max(np.abs(margins))  # largest margin is +-scale
        # at x or at -x the largest margin is +scale: at 750, e^t overflows in
        # some entries, and the stacked oracles must not warn about it
        for x in (x, -x):
            want = np.stack([loss.grad(x[i]) for i, loss in enumerate(losses)])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = inst.grad_stack(x)
                got_means = [inst.mean_grad(point) for point in x[:3]]
                got_objs = [inst.objective(point) for point in x[:3]]
                got_value = inst.stack.value(x)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            # the stack's value at an iterate is the mean of f_i(x_i)
            want_value = sum(loss.value(x[i]) for i, loss in enumerate(losses)) / inst.n
            assert got_value == pytest.approx(want_value, rel=1e-12, abs=0.0)
            for point, got_mean, got_obj in zip(x[:3], got_means, got_objs):
                want_mean = sum(loss.grad(point) for loss in losses) / inst.n
                assert np.max(np.abs(got_mean - want_mean)) <= 1e-12 * np.max(np.abs(want_mean))
                want_obj = sum(loss.value(point) for loss in losses) / inst.n
                want_obj += inst.prox.value(point)
                assert got_obj == pytest.approx(want_obj, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("size", ["replica", "padded"])
    def test_logistic_value_is_bitwise_the_plain_expression(self, size):
        # the in-place value chain against the expression it replaced, on the
        # 49,950 x 22 replica stand-in over 50 agents, and on 103 samples over
        # 10 agents, whose stack has padding columns
        if size == "replica":
            ds, n = correlated_logistic_dataset(49_950, 22, seed=0), 50
        else:
            ds, n = synthetic_logistic_dataset(103, 6, seed=13), 10
        stack = logistic_instance(ds, n, partition_seed=0, ridge=0.01).stack
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.standard_normal((2, ds.d)), 30.0 * rng.standard_normal((2, ds.d))])
        for points in (x, -x, x[0], x.reshape(2, 2, ds.d)):
            margins = np.empty(points.shape[:-1] + stack.signed.shape[::2])
            for *run, i in np.ndindex(margins.shape[:-1]):
                margins[(*run, i)] = np.matmul(points[tuple(run)], stack.signed[i])
            losses = np.where(stack.real,
                              np.maximum(-margins, 0.0) + np.log1p(np.exp(-np.abs(margins))), 0.0)
            ridge_term = 0.5 * stack.ridge * np.vecdot(points, points)[..., None]
            want = (losses.sum(axis=-1) / stack.m + ridge_term).sum(axis=-1) / stack.m.size
            spread = np.broadcast_to(points[..., None, :], points.shape[:-1] + stack.shape)
            assert np.array_equal(stack.value(spread), want)

    @pytest.mark.parametrize("size", ["fifty", "padded"])
    def test_group_size_changes_no_bits(self, monkeypatch, size):
        # the oracles' agent groups of 1, 3, the default and all n agents, on
        # 50 agents and on 103 samples over 10 agents (padding columns), with
        # up to three leading run axes
        if size == "fifty":
            ds, n = correlated_logistic_dataset(10_000, 22, seed=0), 50
        else:
            ds, n = synthetic_logistic_dataset(103, 6, seed=13), 10
        inst = logistic_instance(ds, n, partition_seed=0, ridge=0.01, prox=ProxSpec("l1", 0.01))
        rng = np.random.default_rng(4)
        inputs = [(5.0 * rng.standard_normal(runs + (n, ds.d)),
                   5.0 * rng.standard_normal(runs + (ds.d,)))
                  for runs in ((), (3,), (2, 3), (4,), (3, 2, 5))]
        results = []
        for group in (1, 3, problem._GROUP, n):
            monkeypatch.setattr(problem, "_GROUP", group)
            results.append([(inst.grad_stack(x), inst.mean_grad(point), inst.objective(point))
                            for x, point in inputs])
        for got in results[1:]:
            for got_case, want_case in zip(got, results[0]):
                for a, b in zip(got_case, want_case):
                    assert np.array_equal(np.asarray(a).view(np.int64),
                                          np.asarray(b).view(np.int64))

    def test_quadratic_stack_matches_per_agent_losses_bitwise(self):
        inst = quadratic_instance(5, 4, seed=2, curvature_min=0.1, curvature_max=3.0,
                                  prox=ProxSpec("l1", 0.2))
        losses = _quadratic_references(inst)
        x = np.random.default_rng(1).standard_normal((5, 4))
        want = np.stack([loss.grad(x[i]) for i, loss in enumerate(losses)])
        assert np.array_equal(inst.grad_stack(x), want)
        want_value = sum(loss.value(x[i]) for i, loss in enumerate(losses)) / 5
        assert inst.stack.value(x) == pytest.approx(want_value, rel=1e-14, abs=0.0)
        point = x[0]
        assert np.array_equal(inst.mean_grad(point),
                              np.mean(np.stack([l.grad(point) for l in losses]), axis=0))

    def test_sparse_uneven_partition_matches_per_agent_references(self):
        # about 30% of the entries are stored and some samples store none;
        # 47 samples over 6 agents give slices of 7 and 8
        ds = random_sparse_dataset(47, 6, seed=17, density=0.3)
        assert (np.diff(ds.indptr) == 0).any()
        inst = logistic_instance(ds, 6, partition_seed=5, ridge=0.03)
        losses = _logistic_references(ds, 6, partition_seed=5, ridge=0.03)
        assert {loss.m for loss in losses} == {7, 8}
        signed = inst.stack.signed
        for i, loss in enumerate(losses):
            assert np.array_equal(signed[i, :, :loss.m], (loss.labels[:, None] * loss.features).T)
            assert not signed[i, :, loss.m:].any()
        pairs = [loss.constants() for loss in losses]
        assert inst.L == max(p[0] for p in pairs)
        assert inst.mu == min(p[1] for p in pairs)

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    @pytest.mark.parametrize("prox", [ProxSpec(), ProxSpec("l1", 0.1)])
    def test_leading_run_axis_is_bitwise_per_run(self, kind, prox):
        # a batch of S iterates or points gives each run what it gets alone
        if kind == "quadratic":
            inst = quadratic_instance(5, 4, seed=3, curvature_min=0.1, curvature_max=2.0,
                                      prox=prox)
        else:
            ds = synthetic_logistic_dataset(103, 4, seed=14)
            inst = logistic_instance(ds, 5, partition_seed=2, ridge=0.05, prox=prox)
        rng = np.random.default_rng(6)
        xs = rng.standard_normal((3, 5, 4))
        points = rng.standard_normal((3, 4))
        grads, means, values = inst.grad_stack(xs), inst.mean_grad(points), inst.objective(points)
        assert grads.shape == (3, 5, 4) and means.shape == (3, 4) and values.shape == (3,)
        for s in range(3):
            assert np.array_equal(grads[s], inst.grad_stack(xs[s]))
            assert np.array_equal(means[s], inst.mean_grad(points[s]))
            single = inst.objective(points[s])
            assert isinstance(single, float) and values[s] == single


class TestStepBuffers:
    """The logistic oracles allocate one agent group's temporaries per call
    and keep no state from call to call."""

    @pytest.fixture(scope="class")
    def inst(self):
        ds = correlated_logistic_dataset(10_000, 22, seed=0)
        return logistic_instance(ds, 50, partition_seed=0, ridge=0.01, prox=ProxSpec("l1", 0.01))

    @staticmethod
    def _batches():
        rng = np.random.default_rng(0)
        return 0.1 * rng.standard_normal((2, 3, 50, 22)), 0.1 * rng.standard_normal((2, 3, 22))

    def test_a_repeated_step_allocates_less_than_one_batch_buffer(self, inst):
        xs, points = self._batches()
        inst.grad_stack(xs[0])
        inst.objective(points[0])
        _, peak = traced_peak(lambda: (inst.grad_stack(xs[1]), inst.objective(points[1])))
        assert peak < 3 * 50 * inst.stack.signed.shape[2] * 8

    def test_returned_arrays_survive_the_next_call(self, inst):
        xs, points = self._batches()
        first = (inst.grad_stack(xs[0]), inst.mean_grad(points[0]), inst.objective(points[0]))
        kept = [a.copy() for a in first]
        inst.grad_stack(xs[1])
        inst.mean_grad(points[1])
        inst.objective(points[1])
        for a, b in zip(first, kept):
            assert np.array_equal(a, b)

    def test_pickled_stack_carries_no_buffers(self, inst):
        xs, points = self._batches()
        cold = len(pickle.dumps(logistic_instance(correlated_logistic_dataset(10_000, 22, seed=0),
                                                  50, 0, 0.01, ProxSpec("l1", 0.01))))
        inst.grad_stack(xs[0])
        inst.objective(points[0])
        assert len(pickle.dumps(inst)) == cold
        copy = pickle.loads(pickle.dumps(inst))
        assert np.array_equal(copy.grad_stack(xs[1]), inst.grad_stack(xs[1]))
        assert np.array_equal(copy.objective(points[1]), inst.objective(points[1]))
