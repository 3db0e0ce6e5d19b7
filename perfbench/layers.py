"""Per-layer metrics: merge the trace files of one traced pass.

The metric names and units are the ``per_layer`` list of BENCHMARK.json.
A layer is a mixedhurwitz module.  A name ending in ``.self_s`` is self time
in seconds: span duration minus the time covered by its child spans and by
the leaf hooks called inside it, summed over every span of that name, or of
the whole module for ``<module>.self_s``.  ``characters.lambda_reuse`` is
lambda_distinct over lambda_terms.  Every other name is an exact count summed
over the invocations of the pass.
"""

import json
from collections import defaultdict


def merge(paths):
    """Counters and self times summed over the trace files of one pass.

    Returns ``(counts, seconds)``: exact integers and self times by name.
    """
    counts = defaultdict(int)
    seconds = defaultdict(float)
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        for name, n in doc["counts"].items():
            counts[name] += n
        for name, s in doc["leaf_s"].items():
            seconds[name + ".self_s"] += s
        covered = defaultdict(float)
        for _, parent, _, start, end, _ in doc["spans"]:
            if parent is not None:
                covered[parent] += end - start
        for sid, _, name, start, end, leaf in doc["spans"]:
            seconds[name + ".self_s"] += end - start - covered[sid] - leaf
        counts["trace.spans"] += len(doc["spans"])
    for name, s in list(seconds.items()):
        seconds[name.split(".", 1)[0] + ".self_s"] += s
    return dict(counts), dict(seconds)


def per_layer(names, counts, seconds, extra):
    """The named metrics from counters, self times and extra values.

    A layer that did no work in the pass reads 0.
    """
    terms = counts.get("characters.lambda_terms", 0)
    values = {**seconds, **counts, **extra}
    values["characters.lambda_reuse"] = (
        counts.get("characters.lambda_distinct", 0) / terms if terms else 0.0)
    return {name: values.get(name, 0) for name in names}
