from hypothesis import given, settings
from hypothesis import strategies as st

from satira._matching import occurrences, phrase_index, phrase_starts


def reference_occurrences(tokens, index):
    """The scan that ``occurrences`` replaces: it visits every position, tries
    the phrases starting with its token, longest first, and jumps past a match."""
    i = 0
    while i < len(tokens):
        for phrase in index.get(tokens[i], ()):
            k = len(phrase)
            if tuple(tokens[i : i + k]) == phrase:
                yield i, k
                i += k
                break
        else:
            i += 1


# a small alphabet, so that phrases share first tokens, nest in one another
# and overlap in the token stream
ALPHABET = ["a", "b", "c", "d"]
phrase_sets = st.sets(
    st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=3).map(" ".join), max_size=8
)


class TestOccurrencesMatchFullScan:
    @given(tokens=st.lists(st.sampled_from(ALPHABET + ["e"]), max_size=30).map(tuple),
           phrases=phrase_sets)
    @settings(max_examples=300, deadline=None)
    def test_random_streams(self, tokens, phrases):
        index = phrase_index(sorted(phrases))
        assert list(occurrences(tokens, index)) == list(reference_occurrences(tokens, index))

    @given(tokens=st.lists(st.sampled_from(ALPHABET + ["e"]), max_size=30).map(tuple),
           phrases=phrase_sets, extra=st.sets(st.integers(0, 29)))
    @settings(max_examples=300, deadline=None)
    def test_any_ascending_superset_of_the_starts(self, tokens, phrases, extra):
        index = phrase_index(sorted(phrases))
        starts = phrase_starts(tokens, index)
        assert starts == [i for i, token in enumerate(tokens) if token in index]
        at = sorted(set(starts) | {i for i in extra if i < len(tokens)})
        assert list(occurrences(tokens, index, at)) == list(occurrences(tokens, index))

    def test_nested_phrases_sharing_a_first_token(self):
        index = phrase_index(["a", "a b", "a b c", "b c"])
        tokens = ("a", "b", "c", "a", "b", "a", "b", "c", "b", "c", "a")
        want = [(0, 3), (3, 2), (5, 3), (8, 2), (10, 1)]
        assert list(occurrences(tokens, index)) == want
        assert list(reference_occurrences(tokens, index)) == want
