import pickle

import pytest

from gridstore.errors import AllScenariosInfeasible, InfeasibleScenario, ParseError

# every GridstoreError subclass with its own __init__, with the attributes it sets
ERRORS = {
    "infeasible": (InfeasibleScenario("s1"), {"label": "s1", "detail": ""}),
    "infeasible-detail": (
        InfeasibleScenario("s2", "load exceeds generation"),
        {"label": "s2", "detail": "load exceeds generation"},
    ),
    "all-infeasible": (
        AllScenariosInfeasible("3 of 30 scenarios infeasible", [2, 5, 9]),
        {"infeasible": (2, 5, 9)},
    ),
    "parse": (ParseError("bad token", path="case.m", line=12), {"path": "case.m", "line": 12}),
}


@pytest.mark.parametrize("name", list(ERRORS))
def test_error_survives_pickling(name):
    # an exception a dispatch raised can cross a process boundary, e.g. from a caller's worker
    exc, attrs = ERRORS[name]
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert {k: getattr(back, k) for k in attrs} == attrs
