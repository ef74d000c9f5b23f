"""The tests' references for the oracle's chain counts: a recursive walk that
enumerates every maximal chain, and the sweep's DP summed over a whole diagram."""

from cobweb.oracle import ChainReport, principal_ideals


def recursive_chain_report(diagram):
    """Reference walk: one recursive call per chain prefix."""
    lengths = []

    def extend(vertex, depth):
        uppers = diagram.successors(vertex)
        if not uppers:
            lengths.append(depth)
        for upper in uppers:
            extend(upper, depth + 1)

    for minimal in diagram.minimal_vertices:
        extend(minimal, 1)
    if not lengths:
        return ChainReport(0, 0, 0, True)
    return ChainReport(len(lengths), min(lengths), max(lengths), len(set(lengths)) == 1)


def dp_chain_report(diagram):
    """Every maximal chain by the sweep's DP: the cover paths up to each
    maximal vertex, from one ``principal_ideals`` pass over all vertices.  A
    vertex is maximal when no other vertex's down-set holds it, so only the
    sweep reads ``successors``."""
    ideals = list(principal_ideals(diagram, diagram.vertices))
    below = 0  # the vertices under some other vertex
    for i, (down, _, _) in enumerate(ideals):
        below |= down & ~(1 << i)
    tops = [report for i, (_, _, report) in enumerate(ideals) if not below >> i & 1]
    if not tops:
        return ChainReport(0, 0, 0, True)
    shortest = min(report.min_length for report in tops)
    longest = max(report.max_length for report in tops)
    count = sum(report.chain_count for report in tops)
    return ChainReport(count, shortest, longest, shortest == longest)
