"""Worker counts and row counts for the tests of the passes that split their rows among threads."""

from liftloss import _threads

# worker counts the thread-count tests patch in, whatever the machine has
THREAD_COUNTS = (1, 2, 3)
M = _threads.MIN_SPLIT_ROWS
# just below, at and above the fewest rows that two and three threads split;
# they are 3, 0, 1, 2, 3 and 1 mod 4
SPLIT_ROWS = [2 * M - 1, 2 * M, 2 * M + 1, 2 * M + 2, 3 * M - 1, 3 * M + 1]


def row_ranges(n: int) -> list[slice]:
    """The row ranges a pass over `n` rows gives its threads, at the current worker count."""
    return _threads.over_rows(n, lambda rows: rows)
