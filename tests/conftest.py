import pytest


def _assert_same_lines(actual, expected):
    """Fail unless two texts (both str or both bytes) are equal, naming the
    first line that differs and both line counts.

    Lines keep their endings, so joining them gives the text back: the lists
    are equal exactly when the texts are. A plain `==` on two long texts
    makes pytest diff them whole, which takes minutes on a long series.
    """
    got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    if got == want:
        return
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    pytest.fail(f"line {first + 1} differs: got {got[first:first + 1]!r}, "
                f"expected {want[first:first + 1]!r} ({len(got)} lines against {len(want)})",
                pytrace=False)


@pytest.fixture
def assert_same_lines():
    """The line-by-line text comparison above."""
    return _assert_same_lines
