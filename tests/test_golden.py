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
    sample_arrivals,
    sample_memory_bp,
    yule_marked_ensemble,
    yule_marked_simulate,
)
from seritree.rng import CounterRng
from seritree.serialize import write_tree_binary, write_tree_csv
from seritree.treeops import bp_fringe_sample, empirical_fringe_distribution

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
    (-0.5, "exact"): "d5a53fafd64c2aaca2aa4e052b8d59880816e526a6afd474f9db7ba11d800234",
    (-0.75, "paper_total"): "7c4a1a78041db3d08a63003485b3baec94bde646f55edffc0d426235327f10e8",
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
    (-0.5, "exact"): 10850,
    (-0.75, "paper_total"): 30703,
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
    assert _sha("\n".join(keys).encode()) == "3bbf8a4a04add49a8b8daa269e88c23f82ae18ba874e896d5d9495aa160ee520"


def test_limit_degree_pmf_digest():
    rng = CounterRng(SEED)
    pmf = limit_degree_pmf(0.0, 300, rng)
    assert rng.counter == 1488
    assert _json_digest(sorted(pmf.p.items())) == "8770419f428b29ca88e9a47073a5966aafb04c607c79be64e15d6d40547bc51c"


def test_mc_zeta_hat_digest():
    # nine significant digits: a last-bit difference of a libm exp stays hidden
    samples = mc_zeta_hat(0.0, 1000, CounterRng(SEED))
    text = "\n".join(f"{x:.9e}" for x in samples)
    assert _sha(text.encode()) == "3116d1cc7e77e322cb1da8549f46af2868249bcc07a5a1acdabb15d69805049b"


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
        "e87250bbffb3a8ea773a46a83745c5398f7abf5cfe3dae7d17d31382fdf33984",
        "d0523eff0cf850db42f56229d5308bc1c7f4ccc62f33e2dd9acfef72523cabdb",
        152,
    ),
    (-0.5, "t_max"): (
        "56545d8a784599307362833fcc20373a26724a006c8427528bc162de7bb9e8e0",
        "c6267208dba3f720de027c309f20bbe7108ad0abe3dba18064c96ccbd4c5ef93",
        680,
    ),
    (0.0, "exp1"): (
        "cd5f99cc314a94a7bba9daae50027d2884b2d2f496a0dadc30598809bf024fac",
        "45833def1f6e8406ac38e91a7711ab08d4465790d41975c6c669325dfcafc0cd",
        479,
    ),
    (0.0, "t_max"): (
        "017243fb85e8fbde4748f0245c7b45d70736c614038bb3eac4cc6deefeab4929",
        "538ef6945b4638c394f452ad7ed2bb16b842e54139b7c38b90d96397a5751dec",
        1181,
    ),
    (2.5, "exp1"): (
        "975fd60472f165b8aaed3c7cfc8044eae89a9526b518dfc55b563c3ba80f2a91",
        "b5e176c069b24ecf7fb732b17d8ac79457d12e2fa12f1337f564763ead2fc24d",
        703,
    ),
    (2.5, "t_max"): (
        "a494015821dc1ce58dbd0482c979a2d36a6f6f71a00546bf8e25fe2c5a36e8a2",
        "1cf91bb8ab9bbe6f54cb6a7d37770075823b5c441bc8c6a30163b28d69f98c70",
        1638,
    ),
}


@pytest.mark.parametrize("delta,rule", sorted(MEMORY_BP_DIGESTS))
def test_sample_memory_bp_digest(delta, rule):
    rng = CounterRng(SEED)
    bps = [sample_memory_bp(delta, rng, **STOP_RULES[rule]) for _ in range(30)]
    parents = _json_digest([bp.parents for bp in bps])
    assert (parents, _hex_digest(bp.birth_times for bp in bps), rng.counter) == MEMORY_BP_DIGESTS[(delta, rule)]


def test_yule_marked_ensemble_simplified_digest():
    rng = CounterRng(SEED)
    counts = yule_marked_ensemble(0.0, (1.0, 2.0, 3.0), 200, rng, variant="simplified")
    assert rng.counter == 0  # the ensemble draws from its own Philox generator
    assert _sha(counts.astype("<i8").tobytes()) == "beff9f722dd2bbecc28742cbba3b013fb3580152ee7009ef1f83c89e60aef7a4"


# (digest of t, y, d, w over 20 paths, words consumed)
YULE_PATH_DIGESTS = {
    "exact_chain": ("e3b3c1920f421b457536e0b2220df250e6f2479858184cd1cdfd622eb6fc14e2", 4180),
    "simplified": ("c24eb053e213a78bda0d5786a977c4445868afcf98a79f355ab57dec398d48d0", 4180),
}


@pytest.mark.parametrize("variant", sorted(YULE_PATH_DIGESTS))
def test_yule_marked_simulate_digest(variant):
    rng = CounterRng(SEED)
    paths = [yule_marked_simulate(0.5, 4.0, rng, variant=variant) for _ in range(20)]
    rows = [row for p in paths for row in (p.t, p.y, p.d, p.w)]
    assert (_hex_digest(rows), rng.counter) == YULE_PATH_DIGESTS[variant]
