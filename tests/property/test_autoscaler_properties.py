"""Property-based tests for the autoscaler's sizing arithmetic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import A100_40GB
from repro.partition import required_sms_for, scaled_percentages

MIN_PERCENTAGE = 5


@st.composite
def scaler_cases(draw):
    n_functions = draw(st.integers(min_value=1, max_value=4))
    functions = []
    for i in range(n_functions):
        serial = draw(st.floats(min_value=0.01, max_value=0.5))
        work = draw(st.floats(min_value=0.1, max_value=20.0))
        saturation = draw(st.integers(min_value=2, max_value=108))
        slo = draw(st.floats(min_value=0.05, max_value=5.0))
        demand = draw(st.floats(min_value=0.0, max_value=20.0))
        functions.append((serial, work, saturation, slo, demand))
    return functions


@given(scaler_cases())
@settings(max_examples=60, deadline=None)
def test_desired_percentages_always_valid(case):
    raw = {}
    for i, (serial, work, saturation, slo, demand) in enumerate(case):
        raw[f"fn{i}"] = required_sms_for(
            A100_40GB,
            lambda s, w=work, c=saturation, b=serial: w / min(s, c) + b,
            slo, demand)
    desired = scaled_percentages(A100_40GB, raw,
                                 min_percentage=MIN_PERCENTAGE)
    assert set(desired) == set(raw)
    for pct in desired.values():
        assert MIN_PERCENTAGE <= pct <= 100
    # Requirements honoured: the raw SM needs never exceed the device
    # before normalisation.
    for needed in raw.values():
        assert 1 <= needed <= A100_40GB.sms


@given(scaler_cases())
@settings(max_examples=40, deadline=None)
def test_required_sms_monotone_in_demand(case):
    serial, work, saturation, slo, _ = case[0]

    def law(s):
        return work / min(s, saturation) + serial

    previous = 0
    for demand in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        needed = required_sms_for(A100_40GB, law, slo, demand)
        assert needed >= previous or needed == A100_40GB.sms
        previous = min(needed, previous) if needed == A100_40GB.sms \
            else needed
