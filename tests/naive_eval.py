"""A naive evaluator that shares no matching code with the library.

It uses no ``DataGraph`` index and nothing from ``stargraph.embedding``: it
takes the query's patterns one at a time and, for every partial solution,
scans every data triple. Slow, but short enough to check by eye, so it is
the reference that ``oracle_answers`` is checked against.
"""


def _bind(node, value, bindings):
    """``bindings`` plus ``node -> value``, or None if they disagree."""
    if not node.is_variable:
        return bindings if node == value else None
    bound = bindings.get(node)
    if bound is None:
        return {**bindings, node: value}
    return bindings if bound == value else None


def _connected_order(query):
    """The patterns, each next one sharing a node with an earlier one
    whenever some remaining pattern does, so partial solutions stay few."""
    rest = sorted(query.triples, key=lambda t: t.token())
    order, seen = [], set()
    while rest:
        t = next((t for t in rest if seen & {t.s, t.o}), rest[0])
        rest.remove(t)
        order.append(t)
        seen |= {t.s, t.o}
    return order


def naive_answers(query, graph) -> set[tuple]:
    """The set of distinct answer rows, over ``query.output_pattern``."""
    patterns = _connected_order(query)
    data = list(graph.triples)
    rows = set()

    def extend(i, bindings):
        if i == len(patterns):
            rows.add(tuple(bindings[v] for v in query.output_pattern))
            return
        t = patterns[i]
        for d in data:
            if d.p != t.p:
                continue
            b = _bind(t.s, d.s, bindings)
            if b is not None:
                b = _bind(t.o, d.o, b)
            if b is not None:
                extend(i + 1, b)

    extend(0, {})
    return rows
