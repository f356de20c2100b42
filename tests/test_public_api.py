"""Every public entry refuses a wrong argument with one of the package's
errors: each callable in `eigensplit.__all__`, the exception classes aside,
is called with one wrong value in every positional parameter, at each arity
from its required count to all of them, and whatever it raises is an
`EigensplitError`, never a TypeError or an AttributeError from inside."""

import inspect

import pytest

import eigensplit
from eigensplit.errors import EigensplitError
from eigensplit.lfunctions import configure_cache

_WRONG = ([5], {}, "x", None, 1.5, True, object())

_POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY,
               inspect.Parameter.POSITIONAL_OR_KEYWORD)

_ENTRIES = [name for name in eigensplit.__all__
            if not (isinstance(getattr(eigensplit, name), type)
                    and issubclass(getattr(eigensplit, name), Exception))]


def _arities(entry):
    params = [q for q in inspect.signature(entry).parameters.values()
              if q.kind in _POSITIONAL]
    required = sum(q.default is q.empty for q in params)
    return range(required, len(params) + 1)


@pytest.mark.parametrize("name", _ENTRIES)
def test_public_entries_raise_only_package_errors(tmp_path, monkeypatch,
                                                  name):
    # configure_cache("x") may write x/bernoulli.tsv, so run in tmp_path
    # and leave the Bernoulli table in memory
    monkeypatch.chdir(tmp_path)
    entry, escaped = getattr(eigensplit, name), []
    try:
        for value in _WRONG:
            for n in _arities(entry):
                try:
                    entry(*[value] * n)
                except EigensplitError:
                    pass
                except Exception as e:  # any other error is the finding
                    escaped.append(f"{name}(*[{value!r}] * {n}): "
                                   f"{type(e).__name__}: {e}")
    finally:
        configure_cache(None)
    assert escaped == []


def test_the_sweep_leaves_out_only_the_exception_classes():
    assert set(eigensplit.__all__) - set(_ENTRIES) == {
        "EigensplitError", "PrecisionError", "UsageError",
        "VerificationError"}


def test_result_types_are_not_entries():
    # the library builds its results itself; one built by hand from wrong
    # arguments failed only later, in a method the sweep does not call
    for layer, name in (("lfunctions", "LValue"),
                        ("homotopy", "DualityReport"),
                        ("homotopy", "LesReport")):
        assert name not in eigensplit.__all__
        assert not hasattr(eigensplit, name)
        assert isinstance(getattr(getattr(eigensplit, layer), name), type)
