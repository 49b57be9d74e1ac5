"""Slow reference implementations that faster library code is tested against.

Nothing under ``src/`` imports this module.
"""

import math


def _block_key(block, original_index):
    return (-math.gcd(*block), -len(block), original_index)


def adjust_by_pair_search(blocks):
    """(eliminated, permutation) of the adjusted form, by exhaustive search.

    Linear single-variable blocks are eliminated leftmost first while at
    least three blocks remain.  With fewer than three survivors they are
    sorted by block key.  Otherwise every ordered pair of leading blocks
    whose gcd is the maximal pairwise gcd is tried, the other blocks are
    sorted by their gcd with the leading block (descending), then by block
    key, and the candidate with the lexicographically smallest key sequence
    wins.  This costs O(k^3 log k) for k blocks.
    """
    work = list(enumerate(tuple(block) for block in blocks))
    eliminated = []
    while len(work) >= 3 and any(block == (1,) for _, block in work):
        position = next(i for i, (_, block) in enumerate(work) if block == (1,))
        eliminated.append(work.pop(position)[0])

    if len(work) < 3:
        ordered = sorted(work, key=lambda item: _block_key(item[1], item[0]))
        return tuple(eliminated), tuple(i for i, _ in ordered)

    gcds = {index: math.gcd(*block) for index, block in work}
    max_pair = max(
        math.gcd(gcds[a], gcds[b])
        for k, (a, _) in enumerate(work)
        for b, _ in work[k + 1 :]
    )
    best = None
    best_keys = None
    for first, first_block in work:
        for second, second_block in work:
            if second == first or math.gcd(gcds[first], gcds[second]) != max_pair:
                continue
            rest = [item for item in work if item[0] not in (first, second)]
            rest.sort(
                key=lambda item: (-math.gcd(gcds[first], gcds[item[0]]),)
                + _block_key(item[1], item[0])
            )
            candidate = [(first, first_block), (second, second_block)] + rest
            keys = tuple(_block_key(block, index) for index, block in candidate)
            if best_keys is None or keys < best_keys:
                best, best_keys = candidate, keys
    return tuple(eliminated), tuple(i for i, _ in best)
