"""Counted work: a call's work counted through the sets the package already
keeps, with no change to the package. Counts are exact where timings on a
shared machine are not, so a test can bound how work grows with its input."""
from typing import NamedTuple


class DictionaryWork(NamedTuple):
    parsed: int  # entries parsed into the dictionaries' sets
    lookups: int  # token slices looked up in them


class _CountingSet(set):
    """A dictionary's set of parsed entries that counts the entries added to it
    and the token slices looked up in it."""

    parsed = lookups = 0

    def update(self, entries):
        entries = list(entries)
        self.parsed += len(entries)
        set.update(self, entries)

    def __contains__(self, item):
        self.lookups += 1
        return set.__contains__(self, item)


def count_dictionary_work(roots, suffixes, call, *args):
    """``call(*args)`` and the work it did in the entry sets of the root
    dictionary ``roots`` and of the suffix dictionary ``suffixes``' literals,
    which are swapped for counting copies first."""
    sets = _CountingSet(roots._parsed), _CountingSet(suffixes.literals._parsed)
    roots._parsed, suffixes.literals._parsed = sets
    result = call(*args)
    return result, DictionaryWork(sum(s.parsed for s in sets), sum(s.lookups for s in sets))
