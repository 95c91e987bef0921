"""The recursive split enumeration: the order reference for ``core.rb_splits``."""


def reference_splits(total_rbs: int, parts: int):
    """Every split of ``total_rbs`` into ``parts`` integer counts >= 1.

    Yields tuples in lexicographic order, so slice 0's count ascends.
    """
    if parts == 1:
        yield (total_rbs,)
        return
    for i in range(1, total_rbs - parts + 2):
        for rest in reference_splits(total_rbs - i, parts - 1):
            yield (i,) + rest
