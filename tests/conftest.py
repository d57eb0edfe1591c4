"""Suite-wide test settings."""

import pytest

# Hypothesis's failure report touches mypy_extensions.TypedDict, which warns
# when used.  Under -W error that warning escapes the report hook as an
# INTERNALERROR and ends the session at the first failing @given test.  A
# per-item mark is applied after the command line's -W, so it still holds
# there; an ini filterwarnings entry would not.
_TYPEDDICT = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(_TYPEDDICT)
