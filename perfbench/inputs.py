"""Seeded generators of the benchmark's documents.

Every generator builds a plain-Python model first and renders XML text
from it.  The program under test only ever receives the text; the oracle
(:mod:`oracle`) reads the model.  Nothing here imports ``repro``, so a
change to the program's own data generators cannot change what the
benchmark measures.

Shapes are fixed per size label; the seed only moves the details (who
sits where in a shape, who speaks, who is diagnosed, document order), so
the work a query does changes little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


@dataclass
class Auction:
    """XMark-style auction site: persons and open auctions."""

    persons: list[str]
    #: (auction id, seller id, bidder ids) per open auction.
    auctions: list[tuple[str, str, list[str]]]


@dataclass
class Play:
    """Shakespeare-style play: the speaker of each speech, per scene."""

    scenes: list[list[str]]
    scenes_per_act: int


@dataclass
class Curriculum:
    """Course catalogue: prerequisite indices (0-based) per course."""

    prerequisites: list[list[int]]

    @staticmethod
    def code(index: int) -> str:
        return f"c{index + 1}"


@dataclass
class Ancestor:
    """A patient or one of their recorded ancestors (``parent`` element)."""

    id: str
    diagnosed: bool
    parents: list["Ancestor"] = field(default_factory=list)


@dataclass
class Hospital:
    patients: list[Ancestor]


@dataclass(frozen=True)
class Sizes:
    """Document shapes of one size label."""

    communities: int
    #: Persons per community; each sells one auction, bid on by the next
    #: ``bidders`` persons of the community in a ring.
    community: int
    bidders: int
    acts: int
    scenes_per_act: int
    #: Lengths of the alternating runs of every scene, in seeded order.
    runs: tuple[int, ...]
    levels: int
    per_level: int
    #: Ancestor generations of each block of patients, in seeded order.
    generations: tuple[int, ...]
    blocks: int
    diagnosis_probability: float


#: ``full`` is what the timed runs use; ``smoke`` keeps every shape
#: (cycles, alternating runs, deep ancestries) in documents small enough
#: for a seconds-long check of all workloads.
SIZES = {
    "full": Sizes(communities=8, community=6, bidders=2, acts=2, scenes_per_act=4,
                  runs=(2, 3, 4, 5, 7, 9), levels=10, per_level=12,
                  generations=(4, 4, 3, 2), blocks=30, diagnosis_probability=0.2),
    "smoke": Sizes(communities=3, community=5, bidders=2, acts=1, scenes_per_act=2,
                   runs=(2, 3, 5), levels=5, per_level=8,
                   generations=(3, 2), blocks=8, diagnosis_probability=0.25),
}

SPEAKERS = ("ROMEO", "JULIET", "MERCUTIO", "BENVOLIO", "TYBALT", "NURSE",
            "FRIAR", "CAPULET", "MONTAGUE", "PARIS", "PRINCE", "BALTHASAR")


# ---------------------------------------------------------------------------
# generators
#
# Each document has a fixed shape per size label; the seed permutes which
# element sits where in that shape and draws the content (speakers,
# diagnoses, document order of auctions).  The amount of work a query
# does therefore hardly moves with the seed, while its answer does.
# ---------------------------------------------------------------------------


def make_auction(rng: random.Random, sizes: Sizes) -> Auction:
    """Each community is a ring: every person sells one auction, bid on
    by the next ``bidders`` persons of the ring.  The seed places the
    persons on the ring and orders the auctions."""
    persons = [f"person{index}" for index in range(sizes.communities * sizes.community)]
    auctions = []
    for community in range(sizes.communities):
        ring = persons[community * sizes.community:(community + 1) * sizes.community]
        rng.shuffle(ring)
        for position, seller in enumerate(ring):
            bidders = [ring[(position + step) % len(ring)] for step in range(1, sizes.bidders + 1)]
            auctions.append((seller, bidders))
    rng.shuffle(auctions)
    return Auction(persons, [(f"open_auction{number}", seller, bidders)
                             for number, (seller, bidders) in enumerate(auctions)])


def make_play(rng: random.Random, sizes: Sizes) -> Play:
    """Scenes of alternating two-speaker runs; a run ends where its last
    speaker speaks again to open the next run."""
    scenes = []
    for _ in range(sizes.acts * sizes.scenes_per_act):
        lengths = list(sizes.runs)
        rng.shuffle(lengths)
        speakers: list[str] = []
        first = rng.choice(SPEAKERS)
        for length in lengths:
            second = rng.choice([name for name in SPEAKERS if name != first])
            speakers.extend(first if turn % 2 == 0 else second for turn in range(length))
            first = speakers[-1]
        scenes.append(speakers)
    return Play(scenes, sizes.scenes_per_act)


def make_curriculum(rng: random.Random, sizes: Sizes) -> Curriculum:
    """A layered prerequisite DAG with two-course cycles on the top level.

    The course at ring position *p* of a level requires positions *p* and
    *p + 1* of the level below, so the closure depth is the level count.
    At every other top-level position, the course at position *p* below
    also requires the top course back: a two-course cycle.  The
    consistency query seeds from the top level, so its answer is never
    empty.  The seed orders the courses of each level.
    """
    width = sizes.per_level
    slot: list[list[int]] = []   # slot[level][position] = course index
    for level in range(sizes.levels):
        order = list(range(width))
        rng.shuffle(order)
        slot.append([level * width + place for place in order])
    prerequisites: list[list[int]] = [[] for _ in range(sizes.levels * width)]
    for level in range(1, sizes.levels):
        for position in range(width):
            prerequisites[slot[level][position]] = sorted(
                {slot[level - 1][position], slot[level - 1][(position + 1) % width]})
    top = sizes.levels - 1
    for position in range(rng.randrange(2), width, 2):
        prerequisites[slot[top - 1][position]].append(slot[top][position])
    return Curriculum(prerequisites)


def make_hospital(rng: random.Random, sizes: Sizes) -> Hospital:
    """Blocks of patients whose ancestries are full binary trees of the
    block's generation counts; the seed orders each block and draws the
    diagnoses."""
    counter = iter(range(1 << 30))

    def person(identifier: str, generations: int) -> Ancestor:
        node = Ancestor(identifier, rng.random() < sizes.diagnosis_probability)
        if generations:
            node.parents = [person(f"a{next(counter)}", generations - 1) for _ in range(2)]
        return node

    patients = []
    for _ in range(sizes.blocks):
        block = list(sizes.generations)
        rng.shuffle(block)
        patients.extend(person(f"p{len(patients) + 1}", generations) for generations in block)
    return Hospital(patients)


# ---------------------------------------------------------------------------
# XML text
# ---------------------------------------------------------------------------


def auction_xml(auction: Auction) -> str:
    parts = ["<site><people>"]
    for index, person in enumerate(auction.persons):
        parts.append(f'<person id="{person}"><name>Person {index}</name></person>')
    parts.append("</people><open_auctions>")
    for identifier, seller, bidders in auction.auctions:
        parts.append(f'<open_auction id="{identifier}"><seller person="{seller}"/>')
        parts.extend(f'<bidder><personref person="{bidder}"/></bidder>' for bidder in bidders)
        parts.append("</open_auction>")
    parts.append("</open_auctions></site>")
    return "".join(parts)


def play_xml(play: Play) -> str:
    parts = ["<PLAY><TITLE>The Tragedy of Romeo and Juliet</TITLE>"]
    for number, speakers in enumerate(play.scenes):
        act, scene = divmod(number, play.scenes_per_act)
        if scene == 0:
            if number:
                parts.append("</ACT>")
            parts.append(f"<ACT><TITLE>ACT {act + 1}</TITLE>")
        parts.append(f"<SCENE><TITLE>SCENE {scene + 1}</TITLE>")
        for line, speaker in enumerate(speakers):
            parts.append(f"<SPEECH><SPEAKER>{speaker}</SPEAKER>"
                         f"<LINE>Line {line} of {speaker.title()}.</LINE></SPEECH>")
        parts.append("</SCENE>")
    parts.append("</ACT></PLAY>")
    return "".join(parts)


def curriculum_xml(curriculum: Curriculum) -> str:
    parts = ["<curriculum>"]
    for index, prerequisites in enumerate(curriculum.prerequisites):
        codes = "".join(f"<pre_code>{Curriculum.code(p)}</pre_code>" for p in prerequisites)
        parts.append(f'<course code="{Curriculum.code(index)}">'
                     f"<prerequisites>{codes}</prerequisites></course>")
    parts.append("</curriculum>")
    return "".join(parts)


def hospital_xml(hospital: Hospital) -> str:
    parts = ["<hospital>"]

    def emit(node: Ancestor, tag: str, name: str) -> None:
        flag = ' diagnosed="yes"' if node.diagnosed else ""
        parts.append(f'<{tag} id="{node.id}"{flag}><name>{name}</name>')
        for parent in node.parents:
            emit(parent, "parent", "Ancestor")
        parts.append(f"</{tag}>")

    for number, patient in enumerate(hospital.patients):
        emit(patient, "patient", f"Patient {number + 1}")
    parts.append("</hospital>")
    return "".join(parts)


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

#: Document URI per model kind; the queries name these URIs.
URIS = {"auction": "auction.xml", "play": "play.xml",
        "curriculum": "curriculum.xml", "hospital": "hospital.xml"}
#: Attributes the program must treat as IDs (``fn:id`` over course codes).
ID_ATTRIBUTES = ("id", "code")

_MAKERS = {"auction": (make_auction, auction_xml), "play": (make_play, play_xml),
           "curriculum": (make_curriculum, curriculum_xml),
           "hospital": (make_hospital, hospital_xml)}


def make_document(kind: str, seed: int | str, size: str = "full"):
    """(model, XML text) of one document, fixed by *kind*, *seed* and *size*."""
    make, render = _MAKERS[kind]
    model = make(random.Random(f"{kind}:{seed}"), SIZES[size])
    return model, render(model)


def make_corpus(kinds, seed: int, size: str = "full") -> dict:
    """``{kind: (model, XML text)}`` for the given document kinds."""
    return {kind: make_document(kind, seed, size) for kind in kinds}
