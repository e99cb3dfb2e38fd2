"""Golden digests: fixed-seed outputs pinned byte for byte.

A refactor that keeps these digests keeps the random streams, the tree
layout, the file formats and the fringe keys exactly as they were.  A change
that alters a stream on purpose regenerates the affected digest and says why.
"""

import hashlib
import json

import numpy as np
import pytest

from seritree.growth import GrowthParams, grow
from seritree.limits import (
    limit_degree_pmf,
    mc_zeta_hat,
    sample_edge_bp,
    sample_memory_bp,
    yule_marked_ensemble,
)
from seritree.rng import CounterRng
from seritree.serialize import write_tree_binary, write_tree_csv
from seritree.treeops import bp_fringe_sample, empirical_fringe_distribution

from oracles import sample_arrivals, yule_marked_simulate

N = 10**4
SEED = 20240611


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _parents_digest(tree) -> str:
    return _sha(np.asarray(tree.parent, dtype="<i8").tobytes())


def _json_digest(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True).encode())


PARENT_DIGESTS = {
    (0.0, "exact"): "c466a18e8761e09aafb1dc55ba2ed90610db2ce94bf2b4725deeb1780b339f9d",
    (1.0, "exact"): "ab043023685789d37d3340c284fdb3b3dd5f1f5ce64f8e5e51fb8bd983acd0a9",
    (2.5, "exact"): "b240a63e7617d4ddc4fa37f73216f80ed49d2c92a3fab76025a07a2eb2094cbf",
    (0.3, "exact"): "f28a5a8d23d7a030c7fab2bf4d70cc906fc8b1489b7bb0851838ae8550e607dc",
    (-0.5, "exact"): "d7d07d546e7673233fc4301fcbc7a07c4336699575d7112d74bab50c0116bbd4",
    (-0.75, "paper_total"): "773128c69ed313028424d5ae4dd7308297c8e6311d99448d5ed504186651aac9",
}


@pytest.mark.parametrize("delta,convention", sorted(PARENT_DIGESTS))
def test_grow_parent_digest(delta, convention):
    tree, _ = grow(GrowthParams(delta=delta, n_final=N, seed=SEED, convention=convention))
    assert tree.n == N
    assert _parents_digest(tree) == PARENT_DIGESTS[(delta, convention)]


# words each golden growth draws from CounterRng(SEED)
WORDS_CONSUMED = {
    (0.0, "exact"): 9999,
    (1.0, "exact"): 9999,
    (2.5, "exact"): 9999,
    (0.3, "exact"): 29991,
    (-0.5, "exact"): 9998,
    (-0.75, "paper_total"): 29951,
}


@pytest.mark.parametrize("delta,convention", sorted(WORDS_CONSUMED))
def test_grow_words_consumed(delta, convention):
    rng = CounterRng(SEED)
    grow(GrowthParams(delta=delta, n_final=N, seed=SEED, convention=convention), rng=rng)
    assert rng.counter == WORDS_CONSUMED[(delta, convention)]


def test_checkpoints_and_tracked_degrees():
    params = GrowthParams(delta=0.0, n_final=N, seed=SEED)
    _, snaps = grow(params, checkpoints=(1, 7, 100, 1000, N), track_vertices=(0, 1, 5, 500))
    payload = [
        [
            s.n,
            sorted((int(k), int(c)) for k, c in s.degree_counts.items()),
            sorted((int(v), int(d)) for v, d in s.tracked_degrees.items()),
        ]
        for s in snaps
    ]
    assert [s.n for s in snaps] == [1, 7, 100, 1000, N]
    assert _json_digest(payload) == "09467f607c73c026a3f50f8960a9a2be164acbfa984ccd497371bb30c4c70cbb"


def test_tree_file_bytes(tmp_path):
    tree, _ = grow(GrowthParams(delta=0.0, n_final=N, seed=SEED))
    write_tree_csv(tree, tmp_path / "tree.csv")
    write_tree_binary(tree, tmp_path / "tree.bin")
    assert _sha((tmp_path / "tree.csv").read_bytes()) == "efc7eae058113ea957f82562eb25d636aab68c9e1cd330662d08fd314d099d03"
    assert _sha((tmp_path / "tree.bin").read_bytes()) == "fec29577ab12001d4d2108359b6a306cebc896f6ec33b64cb33cf1a242099f9e"


@pytest.mark.parametrize("k,truncation,digest", [
    (0, 4, "242d1756300e6d3e9165f1bc76e1c1c66adc40aafba697d3f4b3b4f76735c52b"),
    (0, 12, "032d3e3ecb0e4bc01c8bd353af20b3f6a52fe784e597a204642bfd23fececf07"),
    (2, 12, "6bc4fc3831a319acd667fd924941c5dda9b2bb52be31ad2beb11861d54dffcea"),
])
def test_fringe_histogram_digest(k, truncation, digest):
    tree, _ = grow(GrowthParams(delta=0.0, n_final=N, seed=SEED))
    hist = empirical_fringe_distribution(tree, k=k, truncation=truncation)
    payload = [sorted(hist.counts.items()), hist.other, hist.total, hist.excluded_shallow]
    assert _json_digest(payload) == digest


def test_bp_fringe_keys_digest():
    rng = CounterRng(SEED)
    keys = [bp_fringe_sample(0.0, rng) for _ in range(200)]
    assert _sha("\n".join(keys).encode()) == "3a94f011062cd705979e92fc9d80bdff72f6b511edb32f54375888c1d711c045"


def test_limit_degree_pmf_digest():
    rng = CounterRng(SEED)
    pmf = limit_degree_pmf(0.0, 300, rng)
    assert rng.counter == 2034
    assert _json_digest(sorted(pmf.p.items())) == "d226228c8a9e8ff81f611e97eb6a49f1845faf1f6959d3665bbb704c7ab1c8e8"


def test_mc_zeta_hat_digest():
    # nine significant digits: a last-bit difference of a libm exp stays hidden
    samples = mc_zeta_hat(0.0, 1000, CounterRng(SEED))
    text = "\n".join(f"{x:.9e}" for x in samples)
    assert _sha(text.encode()) == "35fc020d74289661ef2f6b1451cdc7d95709655da83edcc97e765f1ed1a96b4b"


def test_yule_marked_ensemble_digest():
    counts = yule_marked_ensemble(0.0, (1.0, 2.0, 3.0), 200, CounterRng(SEED))
    assert counts.shape == (3, 200)
    assert np.array_equal(counts, np.round(counts))
    assert _sha(counts.astype("<i8").tobytes()) == "3e74cff0dfc0c395acca09bce5120991ce71e84df926867983ccc28e94f0a248"


# --- limit processes: every float pinned by its hex form ------------------------

def _hex_digest(rows) -> str:
    return _sha("\n".join(",".join(float.hex(float(x)) for x in row) for row in rows).encode())


STOP_RULES = {"t_max": {"t_max": 3.0}, "max_arrivals": {"max_arrivals": 6}, "exp1": {"exp1": True}}

# (digest of 100 arrival sequences, words consumed)
ARRIVAL_DIGESTS = {
    (-0.5, "exp1"): ("2d855a3d02d88b30423be8e8c22aaa76cd97fff3a771ba8c93719008eea33401", 516),
    (-0.5, "max_arrivals"): ("5a2304f3e35c9b09d72795e66ced58aefff07d094dee2fcb0bdf31db8ee93cde", 2118),
    (-0.5, "t_max"): ("5d95229aaff6c03a2b5f84d2cb13abdb2321770de09b5459f45648e5afdb4db7", 1082),
    (0.0, "exp1"): ("2494327db86c548c84b53be4e5f7a386fc0bc4d083e955452c84a4faedf6f389", 548),
    (0.0, "max_arrivals"): ("050cd232ac8f484428e846633246baaf9fb7f2c556fe35b0ae9b55bce54f0793", 2006),
    (0.0, "t_max"): ("4a29788d1d3e10a2b54739b66416b727df78ed39109345a296636b06748a59e6", 1362),
    (2.5, "exp1"): ("e75c2d5b10bffa7b64c283098491cce56da9f643b9fad1d5d9126ff9be6f61e7", 566),
    (2.5, "max_arrivals"): ("a82bd8b239c55fe1fdfe755bb77b8c27992ed57f1363f744e5ce0dc34687398d", 1812),
    (2.5, "t_max"): ("5e9685e06391edc1652f205595efc43c321e337e0e1f70337a081619b43f5505", 1468),
}


@pytest.mark.parametrize("delta,rule", sorted(ARRIVAL_DIGESTS))
def test_sample_arrivals_digest(delta, rule):
    rng = CounterRng(SEED)
    rows = [sample_arrivals(delta, rng, **STOP_RULES[rule]) for _ in range(100)]
    assert (_hex_digest(rows), rng.counter) == ARRIVAL_DIGESTS[(delta, rule)]


# (digest of the parents, digest of the birth times, words consumed) of 30 realizations
MEMORY_BP_DIGESTS = {
    (-0.5, "exp1"): (
        "142271006f9af910712b219d2eda8ef37aeed6213f7ea01c1ac835b63ff25966",
        "81b23a7863b66ae184aa0a477805957aef681258ad29faad34e4b6a128e16cae",
        370,
    ),
    (-0.5, "t_max"): (
        "3369afbc66ac788dca7578aca910893a0bde9b1e045c74f93109c7709050dca6",
        "d9b20c72ec6000d37fef5109a8dd870a38a1d319c5f64f32d50c4a165ea3290e",
        562,
    ),
    (0.0, "exp1"): (
        "cd27bc86b9a6231fa2dafd95c73c09c6d8607b7a70cec538e3b16f86468302a5",
        "0f97cceda09664c9802df2686f688e7c9b907dba78cd6757d987dd5053c81f26",
        1176,
    ),
    (0.0, "t_max"): (
        "e8d6e5f224952d3bbca7e7e6d469ad2379af429b7b9482dca2f94618cf7125c9",
        "393450feda591a26c477a71985493b771c33cb5233719a2563b91e23be73c217",
        1046,
    ),
    (2.5, "exp1"): (
        "b7ebda83e11a5389453e9a5c73a8c9c4a4ffb1b49ee3207b632192cf6e95f236",
        "26edb4404b7b93d0f08ab898c089223ea68eaa06d2aa2880cd574b69cf8fbd01",
        1746,
    ),
    (2.5, "t_max"): (
        "b6b1c941ef61d048fe7084b6b482267ce7b7942c37313e81224a865ce8cfb01e",
        "db26f2226c315ef73cb7aa2d655ce9a49d35df4d8d26d1a1d89b0dcecb559894",
        1802,
    ),
}


@pytest.mark.parametrize("delta,rule", sorted(MEMORY_BP_DIGESTS))
def test_sample_memory_bp_digest(delta, rule):
    rng = CounterRng(SEED)
    bps = [sample_memory_bp(delta, rng, **STOP_RULES[rule]) for _ in range(30)]
    parents = _json_digest([bp.parents for bp in bps])
    assert (parents, _hex_digest(bp.birth_times for bp in bps), rng.counter) == MEMORY_BP_DIGESTS[(delta, rule)]


# (digest of the parents, digest of the birth times, words consumed) of 30 realizations
EDGE_BP_DIGESTS = {
    (0.0, "exp1"): (
        "35378c9a2368eb2479e5c4ac1e29a00c4a889fc9c469e7b9b7d70f10ef43c8da",
        "4933deda0c3863f01bc53e09d86b742fbe44df0b9d28b507049334d391006ce9",
        225,
    ),
    (0.0, "t_max"): (
        "7c4cda9513d780aeda0937b3ebe47f928c286327bd4a321fbd4b4c1141e3ee64",
        "4da855112a8282402fffe42ae449f86594b0348ad9e716042321ba555d1f68c1",
        522,
    ),
    (1.0, "exp1"): (
        "0a89f63499e00a7b8ec2c45db88d121013b5ac1e02761f966b8154c7a2babff1",
        "7fa5c84f855d9a0d9e5d81688de49eae335b7209b80868d9f468e755b0156451",
        339,
    ),
    (1.0, "t_max"): (
        "4d07b0832ba9e68e76c1808517918c1491d7271274f799f8e4ade1d93129f2db",
        "4ab6d3ea40ef3d14aad256d098c1cacc4e07528df455480952d7a7a84522194c",
        579,
    ),
}


@pytest.mark.parametrize("delta,rule", sorted(EDGE_BP_DIGESTS))
def test_sample_edge_bp_digest(delta, rule):
    rng = CounterRng(SEED)
    bps = [sample_edge_bp(delta, rng, **STOP_RULES[rule]) for _ in range(30)]
    parents = _json_digest([bp.parents for bp in bps])
    assert (parents, _hex_digest(bp.birth_times for bp in bps), rng.counter) == EDGE_BP_DIGESTS[(delta, rule)]


def test_yule_marked_simulate_digest():
    # digest of t, y, d, w over 20 paths, and the words consumed
    rng = CounterRng(SEED)
    paths = [yule_marked_simulate(0.5, 4.0, rng) for _ in range(20)]
    rows = [row for p in paths for row in (p.t, p.y, p.d, p.w)]
    assert (_hex_digest(rows), rng.counter) == ("e3b3c1920f421b457536e0b2220df250e6f2479858184cd1cdfd622eb6fc14e2", 4180)
