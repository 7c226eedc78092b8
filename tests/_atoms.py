"""Atom helpers shared by the test suites."""

from typing import Iterator

from jcham.syntax import Atom, Pair


def iter_cons(a: Atom) -> Iterator[Atom]:
    """The items of a ``cons_list`` atom, in order."""
    while isinstance(a, Pair):
        yield a.first
        a = a.second
