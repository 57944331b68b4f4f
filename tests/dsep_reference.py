"""Definitional d-separation by trail enumeration, and the alarm-story network.

This is the reference ``graphoid.bayesnet.d_separated`` is tested against.
It shares no helper with the scan, and reads a network only through its
public ``parents``, never the scan's masks: a trail is active when every
head-to-head node on it is in z_set or has a descendant there, and every
other interior node avoids z_set; children and descendants are computed
here.
"""

from graphoid import Dag, Trail, Universe


def burglary_network():
    """The five-node alarm-story network of the d-separation goldens: two
    sensors watch for a burglary, the alarm listens to both sensors, and the
    patrol answers the alarm."""
    parents = {
        "burglary": (),
        "sensorA": ("burglary",),
        "sensorB": ("burglary",),
        "alarm": ("sensorA", "sensorB"),
        "patrol": ("alarm",),
    }
    order = tuple(parents)
    return Dag(Universe.binary(*order), {v: frozenset(p) for v, p in parents.items()}, order)


def children(dag):
    """Each node's children, read off ``dag.parents``."""
    out = {v: set() for v in dag.construction_order}
    for child, pars in dag.parents.items():
        for p in pars:
            out[p].add(child)
    return {v: frozenset(c) for v, c in out.items()}


def neighbors(dag, v):
    """The parents and children of ``v``."""
    return dag.parents[v] | children(dag)[v]


def descendants(dag, v):
    """Nodes reachable from ``v`` by a directed path of positive length."""
    kids = children(dag)
    out = set()
    stack = list(kids[v])
    while stack:
        u = stack.pop()
        if u not in out:
            out.add(u)
            stack.extend(kids[u])
    return frozenset(out)


def all_trails(dag, start, end):
    """Every simple path between two nodes in the underlying graph."""
    out = []
    kids = children(dag)

    def walk(path):
        v = path[-1]
        if v == end:
            out.append(Trail(tuple(path)))
            return
        for nxt in sorted(dag.parents[v] | kids[v]):
            if nxt not in path:
                walk(path + [nxt])

    if start != end:
        walk([start])
    return out


def trail_active(dag, trail, z_set):
    """Whether ``trail`` is active given ``z_set``, by the definition."""
    nodes = trail.nodes
    for before, node, after in zip(nodes, nodes[1:], nodes[2:]):
        if before in dag.parents[node] and after in dag.parents[node]:
            if node not in z_set and z_set.isdisjoint(descendants(dag, node)):
                return False
        elif node in z_set:
            return False
    return True


def d_separated_by_enumeration(dag, q):
    """Whether no trail between x_set and y_set is active given z_set."""
    return not any(
        trail_active(dag, trail, q.z_set)
        for a in sorted(q.x_set)
        for b in sorted(q.y_set)
        for trail in all_trails(dag, a, b)
    )
