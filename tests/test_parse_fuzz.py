"""Random strings against the text parsers: each returns a value or raises
an NcycleError subclass, never a raw ValueError, RecursionError or the
like."""
import pytest
from hypothesis import given, settings, strategies as st

from ncyclepp.errors import NcycleError
from ncyclepp.polyperm import SparsePoly, eval_int_expr

from conftest import field

# the parsers' own characters, weighted up, then any text at all
TOKENS = st.sampled_from(["x", "^", "*", "+", "-", "(", ")", "g", "q", "p", "/",
                          "%", " ", "0", "1", "2", "9", "True", "_", ".", "**"])
TEXT = st.one_of(st.lists(TOKENS, max_size=30).map("".join), st.text(max_size=30))


def _parse(name, text):
    ctx = field(3, 2)
    if name == "from_text":
        return SparsePoly.from_text(ctx, text, {"q": 9, "p": 3})
    if name == "from_literal":
        return ctx.from_literal(text)
    return eval_int_expr(text, {"q": 9, "p": 3})


@pytest.mark.parametrize("name", ["from_text", "from_literal", "eval_int_expr"])
@settings(settings.get_profile("deterministic"))
@given(text=TEXT)
def test_parsers_return_or_raise_library_errors(name, text):
    try:
        _parse(name, text)
    except NcycleError:
        pass
