"""Processor-speed probe.

On a shared machine the processor runs up to about twice as slow for
seconds or minutes at a time (see README.md, "Steadiness"). The benchmark
times a fixed job of the same kind of work as the program (set
intersections and sorting over a sparse graph's neighbourhoods) all through
a run, and reports the run's times scaled to the speed at which the job
takes REFERENCE_S.
"""

# the probe's time at full speed on a 2-vCPU Xeon at 2.0 GHz (Python 3.11)
REFERENCE_S = 0.0035


def _levi_adjacency(q: int) -> list[set[int]]:
    """Neighbour sets of the point-line incidence graph of PG(2, q)."""
    points = [(1, a, b) for a in range(q) for b in range(q)]
    points += [(0, 1, b) for b in range(q)] + [(0, 0, 1)]
    m = len(points)
    adj: list[set[int]] = [set() for _ in range(2 * m)]
    for i, p in enumerate(points):
        for j, line in enumerate(points):
            if (p[0] * line[0] + p[1] * line[1] + p[2] * line[2]) % q == 0:
                adj[i].add(m + j)
                adj[m + j].add(i)
    return adj


_ADJ = _levi_adjacency(7)


def _job() -> int:
    adj = _ADJ
    n = len(adj)
    total = 0
    for u in range(n):
        for v in range(u + 1, n):
            total += len(sorted(adj[u] & adj[v]))
    return total


def probe_seconds(clock) -> float:
    """Mean time of five runs of the fixed job, timed with `clock`: the
    mean, not the fastest, since a call feels the processor's average speed
    over its length."""
    start = clock()
    for _ in range(5):
        _job()
    return (clock() - start) / 5
