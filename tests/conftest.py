import dataclasses
from collections import Counter

import pytest


def _counting(problem):
    """The problem with its jacobian calls, and its jvp and vjp calls and rows, counted."""
    work = Counter()

    def jacobian(x, _jacobian=problem.jacobian):
        work["jacobian"] += 1
        return _jacobian(x)

    def counted(name, action):
        def wrapper(X, H):
            work[f"{name} calls"] += 1
            work[f"{name} rows"] += len(H)
            return action(X, H)
        return wrapper
    return dataclasses.replace(problem, jacobian=jacobian, jvp=counted("jvp", problem.jvp),
                               vjp=counted("vjp", problem.vjp)), work


@pytest.fixture
def counting():
    """``counting(problem)`` returns the problem with its work counted, and the Counter."""
    return _counting
