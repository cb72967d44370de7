import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwcuts.errors import ParseError
from fwcuts.instances import (
    MkpInstance,
    format_mknap,
    load_gap_optima,
    parse_gap,
    parse_mknap,
)


class TestParseMknap:
    def test_documented_layout(self):
        insts = parse_mknap("1  2 1 10  6 4  3 5  7")
        assert len(insts) == 1
        inst = insts[0]
        assert inst.n == 2 and inst.m == 1
        assert inst.known_optimum == 10
        assert np.array_equal(inst.profits, [6, 4])
        assert np.array_equal(inst.weights, [[3, 5]])
        assert np.array_equal(inst.capacities, [7])

    def test_empty_header(self):
        assert parse_mknap("0") == []

    def test_negative_instance_count(self):
        with pytest.raises(ParseError) as err:
            parse_mknap("-3")
        assert "instance count must be at least 0" in str(err.value)
        assert err.value.token_offset == 0

    def test_token_after_last_instance(self):
        with pytest.raises(ParseError) as err:
            parse_mknap("1  1 1 0  5  2  3  7 7 7")
        assert "after the last instance" in str(err.value)
        assert err.value.token_offset == 7

    def test_truncated_weights_name_the_field(self):
        with pytest.raises(ParseError) as err:
            parse_mknap("1  2 1 10  6 4  3")  # one weight token missing
        assert "A[0]" in str(err.value)
        assert err.value.token_offset == 7

    def test_zero_header_optimum_means_unknown(self):
        inst = parse_mknap("1  1 1 0  5  2  3")[0]
        assert inst.known_optimum is None

    def test_non_numeric_token(self):
        # also non-finite, non-integral and beyond-int64 numbers: none of them
        # may crash the parser or be silently truncated
        for token in ("x", "inf", "-inf", "nan", "2.5", "99999999999999999999",
                      "-9223372036854775809"):
            with pytest.raises(ParseError) as err:
                parse_mknap(f"1  2 1 10  6 {token}  3 5  7")
            assert err.value.token_offset == 5, token

    def test_dimension_below_one_names_the_token(self):
        # m = 0 used to leak numpy's "need at least one array to stack", and a
        # negative n blamed a capacity further on
        for header, offset in (("2 0 10", 2), ("-2 1 10", 1)):
            with pytest.raises(ParseError) as err:
                parse_mknap(f"1  {header}  1 2 3")
            assert "must be at least 1" in str(err.value)
            assert err.value.token_offset == offset, header

    def test_integral_float_spellings(self):
        inst = parse_mknap("1  2 1 1e1  6 4.0  3 5  7")[0]
        assert inst.known_optimum == 10
        assert np.array_equal(inst.profits, [6, 4])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_format_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        instances = []
        for i in range(int(rng.integers(1, 4))):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            instances.append(
                MkpInstance(
                    name=f"mknap#{i}",
                    n=n,
                    m=m,
                    profits=rng.integers(0, 50, size=n),
                    weights=rng.integers(0, 20, size=(m, n)),
                    capacities=rng.integers(0, 100, size=m),
                    known_optimum=int(rng.integers(1, 1000)),
                )
            )
        parsed = parse_mknap(format_mknap(instances))
        assert len(parsed) == len(instances)
        for a, b in zip(instances, parsed):
            assert a.n == b.n and a.m == b.m and a.known_optimum == b.known_optimum
            assert np.array_equal(a.profits, b.profits)
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.capacities, b.capacities)


class TestParseGap:
    def test_single_agent_two_jobs(self):
        inst = parse_gap("1  1 2  5 7  2 3  5")[0]
        assert inst.n == 2  # one variable per (agent, job) pair
        assert inst.m == 1
        assert np.array_equal(inst.profits, [5, 7])
        assert np.array_equal(inst.weights, [[2, 3]])
        assert np.array_equal(inst.capacities, [5])
        assert len(inst.eq_rows) == 2
        for coeffs, rhs in inst.eq_rows:
            assert rhs == 1 and coeffs.sum() == 1  # single agent

    def test_variable_layout_is_agent_major(self):
        inst = parse_gap("1  2 2  1 2 3 4  5 6 7 8  9 9")[0]
        assert inst.n == 4 and inst.m == 2
        assert np.array_equal(inst.profits, [1, 2, 3, 4])
        assert np.array_equal(inst.weights[0], [5, 6, 0, 0])
        assert np.array_equal(inst.weights[1], [0, 0, 7, 8])
        job0, _ = inst.eq_rows[0]
        assert np.array_equal(job0, [1, 0, 1, 0])

    def test_concatenated_instances(self):
        data = "2  1 1  4  2  3  1 1  6  5  8"
        insts = parse_gap(data)
        assert len(insts) == 2
        assert np.array_equal(insts[1].capacities, [8])

    def test_oversized_resources_parse_fine(self):
        # infeasibility is the relaxation's business, not the parser's
        inst = parse_gap("1  1 1  4  9  3")[0]
        assert np.array_equal(inst.weights, [[9]])
        assert np.array_equal(inst.capacities, [3])

    def test_dimension_below_one_names_the_token(self):
        for header, offset in (("0 2", 1), ("1 0", 2), ("1 -3", 2)):
            with pytest.raises(ParseError) as err:
                parse_gap(f"1  {header}  5 7  2 3  5")
            assert "must be at least 1" in str(err.value)
            assert err.value.token_offset == offset, header

    def test_truncated_stream(self):
        with pytest.raises(ParseError):
            parse_gap("1  2 2  1 2 3 4  5 6 7")

    def test_instance_count(self):
        assert parse_gap("0") == []
        with pytest.raises(ParseError) as err:
            parse_gap("-1  1 1  4  2  3")
        assert "instance count must be at least 0" in str(err.value)
        assert err.value.token_offset == 0

    def test_token_after_last_instance(self):
        with pytest.raises(ParseError) as err:
            parse_gap("1  1 2  5 7  2 3  5  9")
        assert "after the last instance" in str(err.value)
        assert err.value.token_offset == 8


def test_load_gap_optima():
    assert load_gap_optima("10 20 30") == [10, 20, 30]
    assert load_gap_optima("") == []
