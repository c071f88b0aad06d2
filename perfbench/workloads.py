"""The three benchmark workloads and the inputs they send to the program.

Every operation is one ``ckforms.cli.main`` argument vector that writes its
output to a file.  The seed only picks inputs; the program never sees it
except as the ``gap --seed`` argument, which is an input of that command.
"""
from __future__ import annotations

import random

WORKLOADS = ("table1", "products", "gap")

# ``table --which table1`` at the CLI default ``--max-n``.
TABLE1_ARGS = ["table", "--which", "table1", "--max-n", "2", "--format", "json"]

GAP_SPACE = "so44xso24-delta"
# Large enough that sampling, not building the space, is most of the run.
GAP_SAMPLES = 150_000


def products_filter(keys):
    """Keep the candidate keys whose ambient has no ``so(8,8)`` factor.

    ``keys`` are the ``TripleRecord.key`` values of
    ``generate(GenerationSpec(max_n=1))`` in generation order.
    """
    return [k for k in keys if "so(8,8)" not in k.split(":", 1)[0]]


# products_filter applied to generate(GenerationSpec(max_n=1)); the
# self-tests check that the two still agree.
PRODUCT_KEYS = (
    "so(2,4)xsu(2,2):so(2,4)x0+0xsu(2,2)",
    "su(2,2)xso(2,4):sp(1,1)@quaternionicx0+su(1,2)@blockxso(2,4)@id",
    "su(2,2)xsu(2,2):sp(1,1)@quaternionicx0+su(1,2)@blockxsu(2,2)@id",
    "so(2,2)xso(2,4):su(1,1)@complexstructx0+so(1,2)@blockxso(2,4)@id",
    "so(2,2)xsu(2,2):su(1,1)@complexstructx0+so(1,2)@blockxsu(2,2)@id",
    "so(4,4)xso(2,4):so(3,4)@blockx0+sp(1,1)@quaternionicxso(2,4)@id",
    "so(4,4)xsu(2,2):so(3,4)@blockx0+sp(1,1)@quaternionicxsu(2,2)@id",
    "so(4,4)xso(2,4):so(1,4)@blockx0+so(3,4)@spinxso(2,4)@id",
    "so(4,4)xsu(2,2):so(1,4)@blockx0+so(3,4)@spinxsu(2,2)@id",
    "so(3,4)xso(2,4):so(1,4)@blockx0+g2(2)@g2in7xso(2,4)@id",
    "so(3,4)xsu(2,2):so(1,4)@blockx0+g2(2)@g2in7xsu(2,2)@id",
    "su(2,2)xsu(2,2):sp(1,1)@quaternionicxsp(1,1)@quaternionic"
    "+su(1,2)@blockxsu(1,2)@block",
    "su(2,2)xso(2,2):sp(1,1)@quaternionicxsu(1,1)@complexstruct"
    "+su(1,2)@blockxso(1,2)@block",
    "su(2,2)xso(4,4):sp(1,1)@quaternionicxso(3,4)@block"
    "+su(1,2)@blockxsp(1,1)@quaternionic",
    "su(2,2)xso(4,4):sp(1,1)@quaternionicxso(1,4)@block"
    "+su(1,2)@blockxso(3,4)@spin",
    "su(2,2)xso(3,4):sp(1,1)@quaternionicxso(1,4)@block"
    "+su(1,2)@blockxg2(2)@g2in7",
    "so(2,2)xsu(2,2):su(1,1)@complexstructxsp(1,1)@quaternionic"
    "+so(1,2)@blockxsu(1,2)@block",
    "so(2,2)xso(2,2):su(1,1)@complexstructxsu(1,1)@complexstruct"
    "+so(1,2)@blockxso(1,2)@block",
    "so(2,2)xso(4,4):su(1,1)@complexstructxso(3,4)@block"
    "+so(1,2)@blockxsp(1,1)@quaternionic",
    "so(2,2)xso(4,4):su(1,1)@complexstructxso(1,4)@block"
    "+so(1,2)@blockxso(3,4)@spin",
    "so(2,2)xso(3,4):su(1,1)@complexstructxso(1,4)@block"
    "+so(1,2)@blockxg2(2)@g2in7",
    "so(4,4)xsu(2,2):so(3,4)@blockxsp(1,1)@quaternionic"
    "+sp(1,1)@quaternionicxsu(1,2)@block",
    "so(4,4)xso(2,2):so(3,4)@blockxsu(1,1)@complexstruct"
    "+sp(1,1)@quaternionicxso(1,2)@block",
    "so(4,4)xso(4,4):so(3,4)@blockxso(3,4)@block"
    "+sp(1,1)@quaternionicxsp(1,1)@quaternionic",
    "so(4,4)xso(4,4):so(3,4)@blockxso(1,4)@block"
    "+sp(1,1)@quaternionicxso(3,4)@spin",
    "so(4,4)xso(3,4):so(3,4)@blockxso(1,4)@block"
    "+sp(1,1)@quaternionicxg2(2)@g2in7",
    "so(4,4)xsu(2,2):so(1,4)@blockxsp(1,1)@quaternionic"
    "+so(3,4)@spinxsu(1,2)@block",
    "so(4,4)xso(2,2):so(1,4)@blockxsu(1,1)@complexstruct"
    "+so(3,4)@spinxso(1,2)@block",
    "so(4,4)xso(4,4):so(1,4)@blockxso(3,4)@block"
    "+so(3,4)@spinxsp(1,1)@quaternionic",
    "so(4,4)xso(4,4):so(1,4)@blockxso(1,4)@block"
    "+so(3,4)@spinxso(3,4)@spin",
    "so(4,4)xso(3,4):so(1,4)@blockxso(1,4)@block"
    "+so(3,4)@spinxg2(2)@g2in7",
    "so(3,4)xsu(2,2):so(1,4)@blockxsp(1,1)@quaternionic"
    "+g2(2)@g2in7xsu(1,2)@block",
    "so(3,4)xso(2,2):so(1,4)@blockxsu(1,1)@complexstruct"
    "+g2(2)@g2in7xso(1,2)@block",
    "so(3,4)xso(4,4):so(1,4)@blockxso(3,4)@block"
    "+g2(2)@g2in7xsp(1,1)@quaternionic",
    "so(3,4)xso(4,4):so(1,4)@blockxso(1,4)@block"
    "+g2(2)@g2in7xso(3,4)@spin",
    "so(3,4)xso(3,4):so(1,4)@blockxso(1,4)@block"
    "+g2(2)@g2in7xg2(2)@g2in7",
    "so(2,4)xso(2,4):so(2,4)x0+delta(so(2,4))",
    "su(2,2)xsu(2,2):su(2,2)x0+delta(su(2,2))",
    "so(4,4)xso(3,4):so(4,4)x0+delta(so(3,4),spin)",
    "so(4,4)xso(2,4):so(4,4)x0+delta(so(2,4),block)",
    "so(4,4)xso(1,4):so(4,4)x0+delta(so(1,4),block)",
    "so(3,4)xso(2,4):so(3,4)x0+delta(so(2,4),block)",
    "so(3,4)xso(1,4):so(3,4)x0+delta(so(1,4),block)",
    "so(3,4)xg2(2):so(3,4)x0+delta(g2(2),g2in7)",
    "so(2,4)xso(1,4):so(2,4)x0+delta(so(1,4),block)",
    "su(2,2)xsu(2,2):delta(su(2,2))+sp(1,1)@quaternionicxsu(1,2)@block",
    "so(2,2)xso(2,2):delta(so(2,2))+su(1,1)@complexstructxso(1,2)@block",
    "so(4,4)xso(4,4):delta(so(4,4))+so(3,4)@blockxsp(1,1)@quaternionic",
    "so(4,4)xso(4,4):delta(so(4,4))+so(3,4)@spinxso(1,4)@block",
    "so(4,4)xso(3,4):delta(so(3,4),spin)+so(3,4)@blockxso(1,4)@block",
    "so(4,4)xso(2,4):delta(so(2,4),block)+so(3,4)@spinxso(1,4)@block",
    "so(3,4)xso(3,4):delta(so(3,4))+g2(2)@g2in7xso(1,4)@block",
    "so(3,4)xso(2,4):delta(so(2,4),block)+g2(2)@g2in7xso(1,4)@block",
)


def product_order(seed: int) -> list:
    """The product keys in the order the seed shuffles them into."""
    keys = list(PRODUCT_KEYS)
    random.Random(seed).shuffle(keys)
    return keys


def operations(workload: str, seed: int) -> list:
    """The ops of one pass: dicts with a name (the golden key, if any) and
    the argument vector without ``--out``."""
    if workload == "table1":
        return [{"name": "table1", "argv": list(TABLE1_ARGS)}]
    if workload == "products":
        return [
            {"name": k, "argv": ["verify", "--triple", k, "--format", "json"]}
            for k in product_order(seed)
        ]
    if workload == "gap":
        return [
            {
                "name": "gap",
                "argv": [
                    "gap", "--space", GAP_SPACE,
                    "--samples", str(GAP_SAMPLES),
                    "--seed", str(seed), "--format", "json",
                ],
            }
        ]
    raise ValueError(f"unknown workload {workload!r}")
