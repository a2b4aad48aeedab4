"""Byte-identity regression: the colorings the solver produces are pinned.

Each digest is the sha256 of the sorted ``u v c`` lines (``c`` 1-based) of
one coloring, recorded from the solver that padded the graph with real
pendant vertices.  Any change to the sweep that is meant to be a pure
refactor or optimisation must keep every digest.
"""

import hashlib

import pytest

from linarb import Graph, Mode, SolverState, decompose, generate_k_degenerate, required_max_degree
from conftest import (
    endpoint_recolor_fixture,
    ordering_for,
    path_partner_swap_fixture,
    unreserved_trade_fixture,
)


def digest(coloring: dict[tuple[int, int], int]) -> str:
    text = "\n".join(f"{u} {v} {c}" for (u, v), c in sorted(coloring.items()))
    return hashlib.sha256(text.encode()).hexdigest()


# (k, mode, seed, degree above the threshold) -> digest
GENERATED = {
    (2, "minimum", 0, 0): "3b0ea697c1c706af622d58782a72bb18e989eed08fae8d68aaaed3bbb6a4f47a",
    (2, "minimum", 0, 3): "2d67824a4152b6eafbfe95c822c922b8abcabdb52ac88f07ba7f40bed8fd30fa",
    (2, "minimum", 1, 0): "800dbb11483f7c1e8a0bdbb3cac1d91e13fd73ef7e999bb872bd17a39ec3c8aa",
    (2, "minimum", 1, 3): "c478bc7677a1d0c80670703097c8bcc849c6cb392b9fd08ad1105080fc7abeff",
    (2, "minimum", 2, 0): "ebd997d69292096b3f137cb0530f70ed48706612e4ba931cdd229aded6a03017",
    (2, "minimum", 2, 3): "64d5cc2e1fcb6bce6e12ba0f254989cdab365bf27f34f71bc0409d56417bb53e",
    (2, "minimum", 3, 0): "9b6262e1fd17febc9ad051649a81d31651cf2dc5214d1f83ea5478c90b0166ef",
    (2, "minimum", 3, 3): "288af992f3e64eaef19d07d639d4b080fb951d96e7ea5ea24f99a8d48cd272f2",
    (2, "lac", 0, 0): "2561ae3be9a1dc35af5733f218e21a6801a8cd1d3440834812861b7de54e38ea",
    (2, "lac", 0, 3): "f46008f6066ec4355521f541d5f43ccb17b03b29e03fe0c2c0156af497350dc9",
    (2, "lac", 1, 0): "376492845bc7a5e516f85a6e0f1d747910ba7b97f061855ae02acb287d9cf6e5",
    (2, "lac", 1, 3): "376492845bc7a5e516f85a6e0f1d747910ba7b97f061855ae02acb287d9cf6e5",
    (2, "lac", 2, 0): "609fc9b3f08e15d206dde881b066162d980a8e2f090ffa191c98ba46dd231ea7",
    (2, "lac", 2, 3): "7485b1faad7c754cc01f1a343575b3b416a55209e91fdca2d9dfba3b584be815",
    (2, "lac", 3, 0): "9b6262e1fd17febc9ad051649a81d31651cf2dc5214d1f83ea5478c90b0166ef",
    (2, "lac", 3, 3): "9b6262e1fd17febc9ad051649a81d31651cf2dc5214d1f83ea5478c90b0166ef",
    (3, "minimum", 0, 0): "a5fe012bc8c873a96470af8061212609f4d485937793f232b33b6a853c92091c",
    (3, "minimum", 0, 3): "3df304d10f6c4e3466fe6fe72d6375b1714740e03926e6ecc866328bf84aa507",
    (3, "minimum", 1, 0): "7e34bd36bd7db7e8555deba2d40196558395e368ae1e23c4ad94cad1b4267b50",
    (3, "minimum", 1, 3): "41612e1fd6c4ebb4109b6602008e01f22dabad8fce9af61bba1a8899f29b1934",
    (3, "minimum", 2, 0): "a9a1b5211b42dfbb3bee31e5feadbb1012ef5802717b2d28b142e271823d861a",
    (3, "minimum", 2, 3): "1c056be7b547705eada29f771e5c29cf2f5164f25ade6aaa75693b837ad439f7",
    (3, "minimum", 3, 0): "01eb7567c647db18f6f80b7d757099d83f9bbf4f71a8c8560477d1c986ac2a06",
    (3, "minimum", 3, 3): "aac6d65ecc0f131a3df5d9ca8148df6140c16783653fc03e4f2a113dc4f5dfb3",
    (3, "lac", 0, 0): "5afec7aa87ab032d24b57e1125cc28451643661d2f9f8b20a29d613f620d2c5f",
    (3, "lac", 0, 3): "a5fe012bc8c873a96470af8061212609f4d485937793f232b33b6a853c92091c",
    (3, "lac", 1, 0): "6be157664a42fea82ec691aa17141f8eb6d749f50559b4ac453838cf413c9ea1",
    (3, "lac", 1, 3): "7e34bd36bd7db7e8555deba2d40196558395e368ae1e23c4ad94cad1b4267b50",
    (3, "lac", 2, 0): "25f64c6b7f2412933dfeb7c59298f5ec1593d8b9e2098fb6c00a5efcd636c66d",
    (3, "lac", 2, 3): "a9a1b5211b42dfbb3bee31e5feadbb1012ef5802717b2d28b142e271823d861a",
    (3, "lac", 3, 0): "37d7544cc4dcc9101717c3531eb599ab1f1e17c9675bfb359dd7eadd3296032b",
    (3, "lac", 3, 3): "01eb7567c647db18f6f80b7d757099d83f9bbf4f71a8c8560477d1c986ac2a06",
    (4, "minimum", 0, 0): "fb403e19b049906b45e4b4d3e8e4eeea5d8b86b3bff386eb85e142ec96015435",
    (4, "minimum", 0, 3): "e6dde17866f6e4028de338867c024c407e259be932e30f206b0d014a0dd3499e",
    (4, "minimum", 1, 0): "6240dbf1ff85d25dba2c3c2574b7e589fe8758d550be334edc5d9c50235cdfbd",
    (4, "minimum", 1, 3): "839e0cae77fb7e1c102cc0236066cbf8ab302b6df7f65af49d4a2faf39f8d139",
    (4, "minimum", 2, 0): "82c71c6a58089014403252b03a581a5de8349fcc167d706a3d591442361eb62d",
    (4, "minimum", 2, 3): "52058ba939b90fa1d0a414715a01f091bb69c47dcd40492ccb3e1f48e10cdc9f",
    (4, "minimum", 3, 0): "03a9bfb1e2ee8f9218370798b73a66aef35c55c9136276985605104ecc871469",
    (4, "minimum", 3, 3): "ec9ad21e88705d5885050526ba40028004842e1e4a1d6533b454f0bc12cbf35f",
    (4, "lac", 0, 0): "222fd175edb0b2c2a99de8cff383833e2bbceafcd7367d23d8247b1b5de77a0d",
    (4, "lac", 0, 3): "90b88bb050c915e36dc00ea167f3416164769d6ecd29c946219989d1a33ec242",
    (4, "lac", 1, 0): "a159826767d412cf71cf4474de2eb767e66081decd9fa1b9e2c15b28f5b20ff6",
    (4, "lac", 1, 3): "a3f0339d9be783311306f083a0260dbd450cc33e4c24402ac0803c9eda761d50",
    (4, "lac", 2, 0): "4bf4c24c7a7944cc7160d80a64bfa05e3ae894fd3cd465fa4e552469a107ab44",
    (4, "lac", 2, 3): "b3376938caacbcfbd0a7819be4ccad14913a1ad865f60bf9ef2ad9a17fb0027a",
    (4, "lac", 3, 0): "dd77fcc520f15c46c04b80fce32980494ca66e709e97c9440d1017635a7996b7",
    (4, "lac", 3, 3): "81e6ef21a92fcd022e04af8e469fcbc7304463f2ea104edcc713841e389b07f9",
}

FIXTURES = {
    "endpoint_recolor_fixture": "76dff77b7c69c9a891284a15c3c133154902ce4376105f1ba795743ea58c7e93",
    "path_partner_swap_fixture": "99469f6dbadf756f80c0dd8dc0d44a9f493179ac852c4a0eb89d07898c66ab3e",
    "unreserved_trade_fixture": "0625bc92551c6659d213507bacd2e9f13591dd7c696d0b4bef0b04d9a53ec1a3",
}

TILING = "dedec02872b0efe9c15f33526912250f9ffba707f30711a98262cb822c33cbb8"


@pytest.mark.parametrize("key", sorted(GENERATED, key=str), ids=str)
def test_generated_colorings_are_pinned(key):
    k, mode, seed, extra = key
    n = {2: 12, 3: 30, 4: 70}[k]
    g = generate_k_degenerate(n, k, required_max_degree(k, Mode(mode)) + extra, seed)
    assert digest(decompose(g, mode).coloring) == GENERATED[key]


def _sweep(g, ordering, delta, t):
    coloring = SolverState(g, ordering, delta, t, Mode.MINIMUM).run()
    return {e: c + 1 for e, c in coloring.items()}


@pytest.mark.parametrize(
    "fixture", [endpoint_recolor_fixture, path_partner_swap_fixture, unreserved_trade_fixture],
    ids=lambda f: f.__name__,
)
def test_repair_fixture_colorings_are_pinned(fixture):
    assert digest(_sweep(*fixture())) == FIXTURES[fixture.__name__]


def test_tiling_coloring_is_pinned():
    g1, ordering1, delta, t = endpoint_recolor_fixture()
    copies, n1 = 40, g1.n
    g = Graph.from_edges(
        copies * n1,
        [(b * n1 + u, b * n1 + v) for b in range(copies) for u, v in g1.edges()],
    )
    order = [b * n1 + x for b in range(copies) for x in ordering1.order]
    assert digest(_sweep(g, ordering_for(g, order, 2), delta, t)) == TILING
