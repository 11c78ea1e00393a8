"""Query texts: the four Table-2 queries and the closure-churn pool.

The Table-2 queries come in the paper's two formulations:

* IFP form, ``with $x seeded by $s recurse <body> using naive|delta``,
  inside a ``for`` over the seeds;
* UDF form, the recursive ``fix``/``delta`` functions of Figures 2 and 4
  applied to ``rec($s)``.

The UDF functions carry the two corrections every runnable rendering of
Figures 2 and 4 needs: ``fix`` stops on ``empty($res except $x)`` (the
printed operand order never terminates on acyclic data) and ``delta``
starts from ``delta(rec($s), rec($s))`` (the printed ``delta(rec($s), ())``
drops the first derivation).
"""

from __future__ import annotations

from dataclasses import dataclass

from inputs import URIS


@dataclass(frozen=True)
class Table2Query:
    """One Table-2 query: seeds, recursion body and result template."""

    name: str
    kind: str
    prolog: str
    body: str
    seeds: str
    template: str

    def _main(self, closure: str, seed_limit: int) -> str:
        result = self.template.replace("{closure}", closure)
        return (f"for $s in subsequence({self.seeds}, 1, {seed_limit})\n"
                f"return {result}")

    def ifp(self, algorithm: str, seed_limit: int) -> str:
        closure = f"(with $x seeded by $s recurse {self.body} using {algorithm})"
        return f"{self.prolog}\n{self._main(closure, seed_limit)}"

    def udf(self, variant: str, seed_limit: int) -> str:
        call = "fix (rec ($s))" if variant == "fix" else "delta (rec ($s), rec ($s))"
        return f"""{self.prolog}
declare function rec ($x) as node()*
{{ {self.body} }};
declare function fix ($x) as node()*
{{ let $res := rec ($x)
  return if (empty ($res except $x)) then $x else fix ($res union $x) }};
declare function delta ($x, $res) as node()*
{{ let $delta := rec ($x) except $res
  return if (empty ($delta)) then $res else delta ($delta, $delta union $res) }};
{self._main(f"({call})", seed_limit)}"""


def _doc(kind: str) -> str:
    return f'declare variable $doc := doc("{URIS[kind]}");'


TABLE2 = (
    Table2Query(
        name="bidder-network", kind="auction",
        prolog=_doc("auction") + """
declare function bidder ($in as node()*) as node()*
{ for $id in $in/@id
  let $b := $doc//open_auction[seller/@person = $id]/bidder/personref
  return $doc//people/person[@id = $b/@person]
};""",
        body="bidder ($x)",
        seeds="$doc//people/person",
        template="<person>{ $s/@id }{ data (({closure})/@id) }</person>"),
    Table2Query(
        name="dialogs", kind="play",
        prolog=_doc("play"),
        body=("$x/following-sibling::SPEECH[1]"
              "[not(SPEAKER = preceding-sibling::SPEECH[1]/SPEAKER)]"),
        seeds="$doc//SPEECH",
        template="<dialog>{ count({closure}) + 1 }</dialog>"),
    Table2Query(
        name="curriculum", kind="curriculum",
        prolog=_doc("curriculum"),
        body="$x/id (./prerequisites/pre_code)",
        seeds="reverse($doc/curriculum/course)",
        template="if (exists($s intersect {closure})) then $s else ()"),
    Table2Query(
        name="hospital", kind="hospital",
        prolog=_doc("hospital"),
        body="$x/parent",
        seeds="$doc/hospital/patient",
        template="<patient>{ $s/@id }{ count(({closure})[@diagnosed = \"yes\"]) }</patient>"),
)

#: Seeds per query: whole units of each document's shape (one community,
#: three scenes, the top level of courses, fifteen blocks of patients),
#: so the seed does not change how much work a query does.
SEED_LIMITS = {"full": {"bidder-network": 6, "dialogs": 90, "curriculum": 12, "hospital": 60},
               "smoke": {"bidder-network": 5, "dialogs": 10, "curriculum": 8, "hospital": 8}}


# ---------------------------------------------------------------------------
# closure-churn: top-level closures, the paper's Regular XPath s+
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Closure:
    """A top-level closure from one seed element."""

    kind: str      # document the closure runs on
    shape: str     # "prerequisites", "parents" or "children"
    key: str       # ID of the seed element
    algorithm: str  # "delta" (the default µ∆ choice) or "naive"

    @property
    def text(self) -> str:
        using = " using naive" if self.algorithm == "naive" else ""
        if self.shape == "prerequisites":
            return (f'with $x seeded by doc("{URIS["curriculum"]}")/curriculum/course'
                    f'[@code = "{self.key}"] recurse $x/id(./prerequisites/pre_code){using}')
        step = "parent" if self.shape == "parents" else "*"
        return (f'with $x seeded by doc("{URIS["hospital"]}")/hospital/patient'
                f'[@id = "{self.key}"] recurse $x/{step}{using}')


def closure_pool(size: str) -> list[Closure]:
    """The fixed pool of closure texts: 24, well inside the session's
    64-entry plan cache."""
    if size == "smoke":
        courses, patients = ("c40", "c35"), ("p1", "p2")
    else:
        courses, patients = ("c120", "c115", "c110", "c105"), ("p1", "p2", "p3", "p4")
    pool = []
    for algorithm in ("delta", "naive"):
        pool += [Closure("curriculum", "prerequisites", key, algorithm) for key in courses]
        for shape in ("parents", "children"):
            pool += [Closure("hospital", shape, key, algorithm) for key in patients]
    return pool
