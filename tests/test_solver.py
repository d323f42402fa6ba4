import math

import pytest
from hypothesis import given, settings, strategies as st

from prizealloc import trace_path
from prizealloc.core import standard_competition
from prizealloc.rules import MAX_RANGE_ROWS, ED, IntervalList, InvalidPath, allocate, step_rule
from prizealloc.solver import (
    SolverConfig,
    SolverFailure,
    interval_locate,
    iterate_f,
    iterates,
    solve_level,
)


class TestIterate:
    def test_zero_applications_is_identity(self):
        assert iterate_f(lambda x: x / 2, 8.0, 0) == 8.0

    def test_repeated_application(self):
        assert iterate_f(lambda x: x / 2, 8.0, 3) == 1.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            iterate_f(lambda x: x, 1.0, -1)

    def test_iterates_are_the_first_n_iterates(self):
        assert list(iterates(lambda x: x / 2, 8.0, 4)) == [8.0, 4.0, 2.0, 1.0]
        assert list(iterates(lambda x: x / 2, 8.0, 0)) == []

    @given(st.integers(min_value=1, max_value=60), st.floats(min_value=0.0, max_value=1e4),
           st.floats(min_value=0.0, max_value=1.0))
    def test_one_pass_level_sum_is_bit_identical(self, n, x, slope):
        # the single-parametric level sum, against each level re-iterated from x
        def f(y):
            return y - 1.0 if y > 1.0 else slope * y
        assert sum(iterates(f, x, n)) == sum(iterate_f(f, x, k) for k in range(n))


class TestSolveLevel:
    def test_equal_split(self):
        # n identical identity levels: n*x = E
        fs = [lambda x: x] * 4
        assert solve_level(fs, 4, 10.0) == pytest.approx(2.5, abs=1e-9)

    def test_known_kinked_root(self):
        # levels x, max(0, x-1), max(0, x-2): at E = 4 the root is x = 7/3
        fs = [lambda x: x, lambda x: max(0.0, x - 1), lambda x: max(0.0, x - 2)]
        assert solve_level(fs, 3, 4.0) == pytest.approx(7 / 3, abs=1e-9)

    def test_zero_endowment(self):
        assert solve_level([lambda x: x], 1, 0.0) == 0.0

    def test_negative_endowment_rejected(self):
        with pytest.raises(ValueError):
            solve_level([lambda x: x], 1, -1.0)

    def test_missing_levels_rejected(self):
        with pytest.raises(SolverFailure):
            solve_level([lambda x: x], 2, 1.0)

    def test_nonconvergence_raises(self):
        cfg = SolverConfig(residual_tol=1e-14, max_iter=3)
        fs = [lambda x: x, lambda x: max(0.0, x - 1)]
        with pytest.raises(SolverFailure):
            solve_level(fs, 2, 3.3333333, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(residual_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)

    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_residual_bound_property(self, n, endowment, slope):
        # levels x, s*x, s^2*x, ... : residual always within tolerance
        fs = [lambda x, k=k: (slope ** k) * x for k in range(n)]
        x = solve_level(fs, n, endowment)
        residual = abs(sum(f(x) for f in fs) - endowment)
        assert residual <= 1e-10 * max(1.0, endowment)


class TestIntervalLocate:
    def test_inside(self):
        ivs = IntervalList.of((1.0, 2.0), (3.0, 5.0))
        assert interval_locate(ivs, 1.5) == 0
        assert interval_locate(ivs, 4.0) == 1

    def test_outside(self):
        ivs = IntervalList.of((1.0, 2.0), (3.0, 5.0))
        assert interval_locate(ivs, 0.5) is None
        assert interval_locate(ivs, 2.5) is None
        assert interval_locate(ivs, 6.0) is None

    def test_shared_endpoint_takes_first(self):
        ivs = IntervalList.of((1.0, 2.0), (2.0, 3.0))
        assert interval_locate(ivs, 2.0) == 0

    def test_infinite_tail(self):
        ivs = IntervalList.of((1.0, math.inf))
        assert interval_locate(ivs, 1e12) == 0


class TestTracePath:
    def test_grid_and_endpoint(self):
        trace = trace_path(ED(), 2, 1.0, step=0.25)
        assert trace.endowments() == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_irregular_endpoint_included(self):
        trace = trace_path(ED(), 2, 1.1, step=0.25)
        assert trace.endowments()[-1] == 1.1

    def test_samples_match_direct_allocation(self):
        rule = step_rule()
        trace = trace_path(rule, 3, 4.0, step=1.0)
        for e, alloc in trace.samples:
            comp = standard_competition(3, e)
            assert alloc.by_position(comp.ranking) == allocate(rule, comp).by_position(
                comp.ranking
            )

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            trace_path(ED(), 2, -1.0)
        with pytest.raises(ValueError):
            trace_path(ED(), 2, 1.0, step=0.0)

    def test_row_cap(self):
        # the same cap as an endowment range in `table`
        assert len(trace_path(ED(), 1, MAX_RANGE_ROWS - 1, step=1.0).samples) == MAX_RANGE_ROWS
        with pytest.raises(InvalidPath):
            trace_path(ED(), 1, MAX_RANGE_ROWS, step=1.0)
        with pytest.raises(InvalidPath):  # 10^12 rows: refused before any is built
            trace_path(ED(), 2, 1e6, step=1e-6)
