"""``text.words`` is THE whitespace tokenizer of the text, dedup and
tokenize operators: Arrow's ASCII whitespace split after a Unicode
trim, which must equal the RE2 split it replaced,
``split_pattern_regex(utf8_trim_whitespace(x), r"\\s+")``, on every
input. The one code point where the two splits differ (``\\v``) sends
its block to the regex split.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from aqueduct_core_ray.functions import text


def regex_words(col) -> pa.ListArray:
    out = pc.split_pattern_regex(pc.utf8_trim_whitespace(col), r"\s+")
    return out.combine_chunks() if isinstance(out, pa.ChunkedArray) else out


def code_points(skip=()) -> "list[str]":
    return [chr(c) for c in range(0x3000)
            if not 0xD800 <= c < 0xE000 and c not in skip]


def sweep(cps: "list[str]") -> pa.Array:
    """Each code point between two letters, alone, doubled at a text's
    edges and in a run with spaces."""
    return pa.array([s for c in cps for s in (
        f"a{c}b", c, f"{c}{c}x{c}", f" a {c} {c}b  ")], pa.string())


def assert_same_split(col) -> None:
    got, want = text.words(col), regex_words(col)
    assert isinstance(got, pa.ListArray)
    assert got.type == want.type
    assert got.to_pylist() == want.to_pylist()


def test_every_code_point_splits_like_the_regex():
    """U+0000-U+2FFF (no surrogates). Without U+000B the block takes
    the ASCII split; U+000B is checked alone below."""
    col = sweep(code_points(skip={0x0B}))
    assert not pc.any(pc.match_substring(col, "\x0b")).as_py()
    assert_same_split(col)
    assert_same_split(pa.chunked_array([col]))


def test_vertical_tab_takes_the_regex_split():
    """RE2's \\s has no \\v; Arrow's ASCII whitespace has it. A block
    holding one keeps \\v inside its token, as the regex split does,
    and so does every other text of that block."""
    col = pa.array(["a\x0bb c", "x  y", "\x0b lead", "tail \x0b"])
    assert text.words(col).to_pylist() == [
        ["a\x0bb", "c"], ["x", "y"], ["lead"], ["tail"]]
    assert_same_split(col)
    assert_same_split(sweep(code_points()))
    # the ASCII split alone would cut at \v: the fallback is needed
    assert pc.ascii_split_whitespace(col).to_pylist()[0] == ["a", "b", "c"]


@pytest.mark.parametrize("vals", [
    [],
    [""],
    ["", " ", "\t\n", "　", "   ", "  \r\n  "],
    [None, "a b", None, ""],
    [None, None],
    ["one", " two  words ", "tab\tsep\nline", "\x1c\x1dsep\x1e\x1f"],
])
def test_edge_texts_split_like_the_regex(vals):
    col = pa.array(vals, pa.string())
    assert_same_split(col)
    assert_same_split(pa.array(vals, pa.large_string()))


def test_chunked_and_sliced_input_split_like_the_regex():
    rng = np.random.default_rng(3)
    pool = ["w", "ö", " ", "\t", "\n", " ", " ", "\x85", "x y"]
    vals = ["".join(rng.choice(pool, int(rng.integers(0, 9))))
            for _ in range(400)]
    vals[::37] = [None] * len(vals[::37])
    arr = pa.array(vals, pa.string())
    chunked = pa.chunked_array([arr.slice(0, 150), arr.slice(150, 0),
                                arr.slice(150)])
    assert_same_split(chunked)
    assert_same_split(arr.slice(77, 200))
    assert text.words(chunked).to_pylist() == text.words(arr).to_pylist()


def test_lowered_text_splits_like_the_lowered_trimmed_regex():
    """The DSIR featurizer lowers before splitting: ``words(lower(x))``
    trims after lowering, the regex split it replaced trimmed first;
    the token lists are the same over the whole sweep."""
    for col in (sweep(code_points(skip={0x0B})), sweep(code_points())):
        got = text.words(pc.utf8_lower(col))
        want = pc.split_pattern_regex(
            pc.utf8_lower(pc.utf8_trim_whitespace(col)), r"\s+")
        assert got.to_pylist() == want.to_pylist()
