"""Tests for Elmore coefficients, repeater sizing and technology scaling."""

import math

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.circuit.delay_model import DriverDelayModel
from repro.circuit.pvt import BEST_CASE_CORNER, TYPICAL_CORNER, WORST_CASE_CORNER
from repro.clocking import PAPER_CLOCKING
from repro.interconnect.elmore import bus_delay_coefficients, segment_delay_coefficients
from repro.interconnect.parasitics import extract_parasitics
from repro.interconnect.repeater import (
    MAX_REPEATER_SIZE,
    RepeaterChain,
    RepeaterSizingError,
    size_for_target_delay,
)
from repro.interconnect.scaling import (
    delay_spread_metric,
    delay_spread_trend,
    scale_technology,
    scaled_node_series,
)
from repro.interconnect.technology import TECH_130NM


@pytest.fixture(scope="module")
def segment():
    geometry = TECH_130NM.wire_geometry(6e-3)
    parasitics = extract_parasitics(geometry, TECH_130NM.resistivity, TECH_130NM.dielectric_constant)
    return parasitics.for_length(1.5e-3)


@pytest.fixture(scope="module")
def driver_model():
    return DriverDelayModel()


class TestElmoreCoefficients:
    def test_segment_base_and_coupling_positive(self, segment):
        coefficients = segment_delay_coefficients(200.0, segment, 50e-15, 60e-15)
        assert coefficients.base > 0.0
        assert coefficients.per_coupling > 0.0

    def test_bus_is_n_segments_of_stage(self, segment):
        single = segment_delay_coefficients(200.0, segment, 50e-15, 60e-15)
        bus = bus_delay_coefficients(200.0, segment, 4, 50e-15, 60e-15, 60e-15)
        assert bus.base == pytest.approx(4 * single.base)
        assert bus.per_coupling == pytest.approx(4 * single.per_coupling)

    def test_worst_case_is_four_couplings(self, segment):
        coefficients = segment_delay_coefficients(200.0, segment, 50e-15, 60e-15)
        assert coefficients.worst_case == pytest.approx(coefficients.delay(4.0))

    def test_invalid_segment_count_rejected(self, segment):
        with pytest.raises(ValueError):
            bus_delay_coefficients(200.0, segment, 0, 50e-15, 60e-15, 60e-15)


class TestRepeaterSizing:
    def test_sized_chain_meets_600ps_at_worst_corner(self, segment, driver_model):
        chain = size_for_target_delay(
            target_delay=PAPER_CLOCKING.main_deadline,
            vdd=1.2,
            corner=WORST_CASE_CORNER,
            segment=segment,
            driver_model=driver_model,
            n_segments=4,
        )
        delay = chain.worst_case_delay(1.2, WORST_CASE_CORNER, segment, driver_model)
        assert delay <= PAPER_CLOCKING.main_deadline
        assert delay >= 0.95 * PAPER_CLOCKING.main_deadline  # no gross over-design

    def test_smaller_target_needs_bigger_repeaters(self, segment, driver_model):
        relaxed = size_for_target_delay(700e-12, 1.2, WORST_CASE_CORNER, segment, driver_model, 4)
        tight = size_for_target_delay(620e-12, 1.2, WORST_CASE_CORNER, segment, driver_model, 4)
        assert tight.size > relaxed.size

    def test_impossible_target_raises(self, segment, driver_model):
        with pytest.raises(RepeaterSizingError):
            size_for_target_delay(50e-12, 1.2, WORST_CASE_CORNER, segment, driver_model, 4)

    def test_delay_improves_at_faster_corner(self, segment, driver_model):
        chain = size_for_target_delay(600e-12, 1.2, WORST_CASE_CORNER, segment, driver_model, 4)
        worst = chain.worst_case_delay(1.2, WORST_CASE_CORNER, segment, driver_model)
        typical = chain.worst_case_delay(1.2, TYPICAL_CORNER, segment, driver_model)
        assert typical < worst

    def test_delay_increases_as_supply_scales_down(self, segment, driver_model):
        chain = RepeaterChain(n_segments=4, size=30.0)
        nominal = chain.worst_case_delay(1.2, TYPICAL_CORNER, segment, driver_model)
        scaled = chain.worst_case_delay(1.0, TYPICAL_CORNER, segment, driver_model)
        assert scaled > nominal

    def test_total_repeater_size(self):
        chain = RepeaterChain(n_segments=4, size=25.0)
        assert chain.total_repeater_size(32) == pytest.approx(4 * 25.0 * 32)

    def test_invalid_chain_rejected(self):
        with pytest.raises(ValueError):
            RepeaterChain(n_segments=0, size=10.0)
        with pytest.raises(ValueError):
            RepeaterChain(n_segments=4, size=-1.0)


def _delay_optimum(delay):
    """``(size, delay)`` at the minimum of the convex delay curve on
    ``[1, MAX_REPEATER_SIZE]``, by ternary search."""
    lo, hi = 1.0, MAX_REPEATER_SIZE
    for _ in range(100):
        left, right = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
        if delay(left) <= delay(right):
            hi = right
        else:
            lo = left
    optimum = 0.5 * (lo + hi)
    if optimum >= MAX_REPEATER_SIZE * (1.0 - 1e-9):
        optimum = MAX_REPEATER_SIZE
    return optimum, delay(optimum)


def _reference_sizing(delay, target):
    """Test-local sizing by search on ``delay``.

    The smallest size meeting ``target`` is found by bisection on the
    decreasing branch of the delay curve.  Returns ``(branch, size, best
    delay, conditioned)``: rounding in the delay moves the root by
    ``delay / (size * |slope|)`` times as much, so near the flat bottom of
    the curve only the delay, not the size, is pinned down.
    """
    at_one = delay(1.0)
    if math.isinf(at_one):
        return "sub-threshold", None, math.inf, False
    optimum, best = _delay_optimum(delay)
    if target < best:
        return "unreachable", None, best, False
    if at_one <= target:
        return "size-1", 1.0, best, True
    lo, hi = 1.0, optimum  # delay(lo) > target >= delay(hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if delay(mid) > target else (lo, mid)
    slope = (delay(hi * (1.0 + 1e-6)) - delay(hi * (1.0 - 1e-6))) / (2e-6 * hi)
    conditioned = delay(hi) <= 1e3 * hi * abs(slope)
    if hi * 1.002 < optimum:
        return "root", hi * 1.002, best, conditioned
    return ("max-clamp" if optimum == MAX_REPEATER_SIZE else "optimum"), optimum, best, conditioned


CORNERS = {"worst": WORST_CASE_CORNER, "typical": TYPICAL_CORNER, "best": BEST_CASE_CORNER}

#: One drawn case per branch of the sizer, as ``(n_segments, corner, vdd,
#: length_mm, coupling, position)``.  ``position`` puts the target below the
#: best delay (< 0), between it and the size-1 delay (0 to 1), or above that.
BRANCH_EXAMPLES = {
    branch: dict(zip(("n_segments", "corner", "vdd", "length_mm", "coupling", "position"), case))
    for branch, case in {
        "root": (4, "worst", 1.2, 6.0, 4.15, 0.3),
        "size-1": (3, "typical", 1.0, 2.0, 2.0, 1.5),
        "unreachable": (2, "worst", 1.0, 12.0, 4.0, -0.5),
        "sub-threshold": (4, "worst", 0.3, 6.0, 4.0, 0.5),
        "max-clamp": (1, "best", 1.2, 3.0, 4.0, 1e-6),
        "optimum": (4, "worst", 1.2, 6.0, 4.15, 1e-8),
        "c-zero": (1, "worst", 0.9, 3.0, 6.0, 0.5),
    }.items()
}


def _sizing_case(wire, driver_model, n_segments, corner, vdd, length_mm, coupling, position):
    """The sizer's arguments for one drawn case, and its delay curve."""
    segment = wire.for_length(length_mm * 1e-3 / n_segments)
    args = (vdd, CORNERS[corner], segment, driver_model)

    def delay(size):
        return RepeaterChain(n_segments, size).worst_case_delay(*args, coupling)

    at_one = delay(1.0)
    if math.isinf(at_one):  # below threshold: no delay to place the target by
        return 600e-12, args, delay
    best = _delay_optimum(delay)[1]
    if position < 0.0:
        target = best * (1.0 + 0.5 * position)
    else:
        target = best + position * (at_one - best)
    return target, args, delay


@pytest.fixture(scope="module")
def wire():
    geometry = TECH_130NM.wire_geometry(6e-3)
    return extract_parasitics(geometry, TECH_130NM.resistivity, TECH_130NM.dielectric_constant)


class TestSizingMatchesBisection:
    """The closed-form sizer against a test-local search on the delay curve."""

    @pytest.mark.parametrize("branch", sorted(BRANCH_EXAMPLES))
    def test_examples_reach_their_branch(self, wire, driver_model, branch):
        case = BRANCH_EXAMPLES[branch]
        target, _, delay = _sizing_case(wire, driver_model, **case)
        assert _reference_sizing(delay, target)[0] == ("root" if branch == "c-zero" else branch)

    @seed(2005)
    @settings(max_examples=150, deadline=None)
    @given(
        n_segments=st.integers(1, 8),
        corner=st.sampled_from(sorted(CORNERS)),
        vdd=st.floats(0.25, 1.3),
        length_mm=st.floats(0.5, 20.0),
        coupling=st.floats(1.0, 6.0),
        position=st.floats(-1.0, 2.0),
    )
    @example(**BRANCH_EXAMPLES["root"])
    @example(**BRANCH_EXAMPLES["size-1"])
    @example(**BRANCH_EXAMPLES["unreachable"])
    @example(**BRANCH_EXAMPLES["sub-threshold"])
    @example(**BRANCH_EXAMPLES["max-clamp"])
    @example(**BRANCH_EXAMPLES["c-zero"])
    @example(**BRANCH_EXAMPLES["optimum"])
    def test_sizer_agrees_with_bisection(
        self, wire, driver_model, n_segments, corner, vdd, length_mm, coupling, position
    ):
        target, args, delay = _sizing_case(
            wire, driver_model, n_segments, corner, vdd, length_mm, coupling, position
        )
        branch, size, best, conditioned = _reference_sizing(delay, target)
        if math.isfinite(best) and abs(target / best - 1.0) <= 1e-9:
            return  # reachability is decided by rounding this close to the best delay

        def sized():
            return size_for_target_delay(target, *args, n_segments, max_coupling_factor=coupling)

        if branch in ("sub-threshold", "unreachable"):
            with pytest.raises(RepeaterSizingError):
                sized()
            return
        chain = sized()
        assert delay(chain.size) <= target
        assert delay(chain.size) == pytest.approx(delay(size), rel=1e-12)
        if conditioned:
            assert chain.size == pytest.approx(size, rel=1e-12)


class TestTechnologyScaling:
    def test_scaled_node_shrinks_wires(self):
        node = scale_technology(TECH_130NM, 65e-9)
        assert node.wire_width == pytest.approx(TECH_130NM.wire_width * 0.5)
        assert node.name == "65nm"

    def test_known_node_supplies(self):
        assert scale_technology(TECH_130NM, 90e-9).nominal_vdd == pytest.approx(1.1)
        assert scale_technology(TECH_130NM, 45e-9).nominal_vdd == pytest.approx(0.9)

    def test_series_contains_requested_nodes(self):
        nodes = scaled_node_series((130e-9, 65e-9))
        assert set(nodes) == {"130nm", "65nm"}

    def test_delay_spread_grows_with_scaling(self):
        trend = delay_spread_trend()
        values = list(trend.values())
        assert values[0] == pytest.approx(1.0)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_delay_spread_metric_positive(self):
        assert delay_spread_metric(TECH_130NM) > 0.0

    def test_minimum_pitch_property(self):
        assert TECH_130NM.minimum_pitch == pytest.approx(0.8e-6)
