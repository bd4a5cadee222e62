"""Warnings are errors in the CLI children too.

``filterwarnings = ["error"]`` governs the test process only.  Every child
that a test module starts inherits ``PYTHONWARNINGS=error`` from here, so a
numpy overflow or invalid-value warning fails a child run as well."""

import pytest


@pytest.fixture(scope="module", autouse=True)
def children_treat_warnings_as_errors():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONWARNINGS", "error")
        yield
