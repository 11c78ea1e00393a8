"""Expected answers, computed in plain Python from the generators' models.

Nothing here imports ``repro``: each answer follows from the query's
meaning on the model (seller→bidder edges, speaker sequences, the
prerequisite graph, ancestor trees), never from the program.

Answers are in the shape :mod:`workloads` reads off the program's
output, so a check is one ``==``.
"""

from __future__ import annotations

from inputs import Ancestor, Auction, Curriculum, Hospital, Play


def closure(start, successors) -> set:
    """Inflationary fixed point of ``successors`` from ``{start}``: every
    node reachable in one or more steps (``start`` only if on a cycle)."""
    result: set = set()
    frontier = set(successors(start))
    while frontier:
        result |= frontier
        frontier = {nxt for node in frontier for nxt in successors(node)} - result
    return result


# -- Table 2 ----------------------------------------------------------------


def bidder_network(auction: Auction, seed_limit: int) -> list[tuple[str, str]]:
    """(person id, space-separated ids of the closure in document order)."""
    edges: dict[str, set[str]] = {}
    for _, seller, bidders in auction.auctions:
        edges.setdefault(seller, set()).update(bidders)
    order = {person: index for index, person in enumerate(auction.persons)}
    answer = []
    for person in auction.persons[:seed_limit]:
        reached = closure(person, lambda p: edges.get(p, ()))
        answer.append((person, " ".join(sorted(reached, key=order.__getitem__))))
    return answer


def dialogs(play: Play, seed_limit: int) -> list[str]:
    """Per speech: 1 + the length of the alternating run that follows it.

    The body steps to the next speech of the scene if its speaker differs
    from the current one, so the closure from a speech is the run of
    speeches after it in which consecutive speakers differ.
    """
    answer = []
    for speakers in play.scenes:
        for index in range(len(speakers)):
            run = 0
            while (index + run + 1 < len(speakers)
                   and speakers[index + run + 1] != speakers[index + run]):
                run += 1
            answer.append(str(run + 1))
    return answer[:seed_limit]


def curriculum(model: Curriculum, seed_limit: int) -> list[str]:
    """Codes of the last ``seed_limit`` courses, last first, that are
    among their own prerequisites."""
    courses = range(len(model.prerequisites) - 1, -1, -1)
    return [Curriculum.code(course) for course in list(courses)[:seed_limit]
            if course in closure(course, model.prerequisites.__getitem__)]


def hospital(model: Hospital, seed_limit: int) -> list[tuple[str, str]]:
    """(patient id, number of diagnosed ancestors)."""
    return [(patient.id, str(sum(a.diagnosed for a in ancestors(patient))))
            for patient in model.patients[:seed_limit]]


TABLE2 = {"bidder-network": bidder_network, "dialogs": dialogs,
          "curriculum": curriculum, "hospital": hospital}


# -- closure-churn ------------------------------------------------------------


def ancestors(person: Ancestor) -> list[Ancestor]:
    """All recorded ancestors in document order (pre-order)."""
    found = []
    for parent in person.parents:
        found.append(parent)
        found.extend(ancestors(parent))
    return found


def _find_patient(model: Hospital, key: str) -> Ancestor:
    return next(patient for patient in model.patients if patient.id == key)


def closure_answer(model, shape: str, key: str) -> list[tuple[str, str]]:
    """(element name, ID) of each node of a top-level closure, in
    document order; ``name`` elements carry no ID."""
    if shape == "prerequisites":
        start = int(key[1:]) - 1
        reached = closure(start, model.prerequisites.__getitem__)
        return [("course", Curriculum.code(course)) for course in sorted(reached)]
    patient = _find_patient(model, key)
    if shape == "parents":
        return [("parent", ancestor.id) for ancestor in ancestors(patient)]
    # children: every element below the patient, each name before its parents
    found = []

    def walk(person: Ancestor) -> None:
        found.append(("name", ""))
        for parent in person.parents:
            found.append(("parent", parent.id))
            walk(parent)

    walk(patient)
    return found
