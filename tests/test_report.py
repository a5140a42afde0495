import pytest

from lie2alg.report import CheckReport
from conftest import assert_refused, refusals


@pytest.mark.parametrize("call, exc, message", refusals([
    ("unknown check", lambda: CheckReport("r").result("nope"), KeyError, "'nope'"),
]))
def test_report_refusals_name_the_check(call, exc, message):
    assert_refused(call, exc, message)
