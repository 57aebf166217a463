"""Golden outputs of the three solvers on fixed seeds, compared exactly.

Every case records what a solver returned on a small seeded input: selected
indices and weights, per-iteration traces, swap and fallback counts.  The
comparison is `==`, not approx, so any change to the arithmetic or to the
order of random draws shows up here.  Long index arrays are compared by a
SHA-256 digest of their int64 bytes.

Besides the recorded values, each case asserts the solver's own guarantee:
the Kadison-Singer norm bound of its backend, and lambda_min > 1 - gamma eps
for swap rounding.

The recorded bits also depend on numpy's SIMD dispatch.  numpy picks the
target of float64 `power` at run time from the CPU; numpy 2.4.6 on an
AVX-512 x86-64 host runs it on X86_V4, where its baseline is X86_V2, as
numpy.lib.introspect.opt_func_info("^power$", "float64") shows.  There an
array `x ** -2.0` differs in its last bit from libm `pow` on about 5.4% of
elements (4,295 of 80,000 in arrays of length 4).  The sparsifier's and
KS's barrier matrices and `whiten` take such array powers (find_ct no
longer does), so a host whose numpy dispatches `power` elsewhere may fail
these cases by last bits.  scripts/replay_afn.py prints the dispatch and
numpy's version beside its hashes.
"""

import hashlib

import numpy as np
import pytest

from sparsekit import expdesign, kadison_singer, sparsifier
from sparsekit.aipe import AipeConfig
from sparsekit.linalg import VectorFamily, whiten

from conftest import paired_angle_family, random_isotropic_family, random_ks_family


def digest(indices) -> str:
    return hashlib.sha256(np.asarray(indices, dtype=np.int64).tobytes()).hexdigest()[:16]


def floats(values) -> list:
    return [float(v) for v in values]


# -- Kadison-Singer selection -------------------------------------------------

KS_D, KS_N, KS_C, KS_TAU = 2, 8, 0.505, 0.5
KS_N_SELECT = KS_D * KS_N // 2


def ks_outcome(backend: str):
    family = random_ks_family(KS_D, KS_N, np.random.default_rng(0))
    kwargs = {} if backend == "exact" else {"c": KS_C, "tau": KS_TAU}
    result = kadison_singer.ks_select(
        family,
        KS_N,
        KS_N_SELECT,
        backend=backend,
        seed=0,
        **kwargs,
    )
    return family, result


def ks_record(result) -> dict:
    return {
        "indices": result.selection.indices.tolist(),
        "weights": floats(result.selection.weights),
        "score_trace": floats(result.score_trace),
        "potential_trace": floats(result.potential_trace),
        "fallbacks": result.fallbacks,
        "final_norm": float(result.final_norm),
    }


# -- experimental-design swap rounding ---------------------------------------


def rare_direction_rows(seed: int, m: int, d: int) -> np.ndarray:
    """Gaussian rows on the first d/2 coordinates; each other coordinate is
    carried by one row only, so a random n-subset almost surely misses it."""
    rng = np.random.default_rng(seed)
    half = d // 2
    X = rng.standard_normal((m, d))
    X[:, half:] = 0.0
    rare = rng.choice(m, size=d - half, replace=False)
    X[rare, np.arange(half, d)] = 1.0
    return X


# (rows seed, d, epsilon, gamma, c, tau, n, m, backend, solver seed)
SWAP_CASES = {
    "exact-s1": (1, 4, 0.2, 4.0, 0.9, 0.5, 772, 3088, "exact", 1),
    "exact-s2": (2, 4, 0.2, 4.0, 0.9, 0.5, 772, 3088, "exact", 2),
    "aipe-s1": (1, 4, 0.2, 4.0, 0.9, 0.5, 772, 3088, "aipe", 1),
    "aipe-s2": (2, 4, 0.2, 4.0, 0.9, 0.5, 772, 3088, "aipe", 2),
    # the smallest size at which the afn window and n >= n_floor both hold
    "afn-s0": (0, 2, 1.0 / 6.0, 6.0, 0.905, 0.9, 155, 310, "afn", 0),
}


def swap_outcome(case: str):
    rows_seed, d, eps, gamma, c, tau, n, m, backend, seed = SWAP_CASES[case]
    pi = np.full(m, n / m)
    family = whiten(VectorFamily(rare_direction_rows(rows_seed, m, d)), pi)
    result = expdesign.swap_round(
        family,
        pi,
        n,
        eps,
        gamma=gamma,
        c=c,
        tau=None if backend == "exact" else tau,
        backend=backend,
        seed=seed,
        aipe_config=AipeConfig.desk(),
    )
    return family, result


def swap_record(result) -> dict:
    return {
        "indices": digest(result.selection.indices),
        "initial": digest(result.initial_set),
        "lambda_trace": floats(result.lambda_trace),
        "trace_minus": floats(result.trace_minus),
        "trace_plus": floats(result.trace_plus),
        "trace_norm": floats(result.trace_norm),
        "swaps": result.swaps,
        "fallbacks": result.fallbacks,
    }


# -- spectral sparsification ---------------------------------------------------

BSS_M, BSS_D, BSS_EPS = 40, 4, 0.5
# rows with two nonzeros, which choose_tree sends to the matrix tree
BSS_PAIRED_D, BSS_PAIRED_ANGLES = 8, 6


def bss_family(variant: str) -> VectorFamily:
    rng = np.random.default_rng(7)
    if variant != "fast-matrix":
        return random_isotropic_family(BSS_M, BSS_D, rng)
    family = paired_angle_family(BSS_PAIRED_D, BSS_PAIRED_ANGLES, phase=rng.uniform(0.0, np.pi))
    return VectorFamily(family.vectors[rng.permutation(family.count)])


def bss_outcome(variant: str):
    family = bss_family(variant)
    solver = sparsifier.bss_reference if variant == "reference" else sparsifier.sparsify_fast
    return solver(family, BSS_EPS)


def bss_record(out) -> dict:
    selection, _, trace = out
    return {
        "indices": selection.indices.tolist(),
        "weights": floats(selection.weights),
        "upper_potentials": floats(trace.upper_potentials),
        "lower_potentials": floats(trace.lower_potentials),
        "fallbacks": trace.fallbacks,
        "tree_kind": trace.tree_kind,
    }


# Recorded by running this file as a script (see _regenerate).
GOLDEN = {
    'ks-exact': {
        'indices': [0, 1, 2, 3, 4, 5, 6, 7],
        'weights': [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        'score_trace': [0.7852627661454068, 0.6094272013032258, 0.7669632585228184, 0.6138360961559842, 0.7529264955551379, 0.6173248315197606, 0.741818394322, 0.6201489748891176],
        'potential_trace': [5.656854249492381, 5.295751007577169, 4.740255780376881, 4.468913269793345, 4.079277238733167, 3.8683428529446005, 3.580073804950357, 3.411566641808496, 3.1897292202597747],
        'fallbacks': 0,
        'final_norm': 0.4999999999999999,
    },
    'ks-aipe': {
        'indices': [11, 7, 1, 8, 4, 6, 9, 12],
        'weights': [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        'score_trace': [0.785262766145407, 0.7511055954054748, 0.8095806431444807, 0.6690657580980285, 0.7798198127458899, 0.7050440479992952, 0.7268287916122156, 0.6554098941729863],
        'potential_trace': [5.656854249492381, 4.80429840435229, 4.162209657257307, 3.694830805534396, 3.2819336533567443, 2.980054720960011, 2.7148131284459103, 2.497336702467044, 2.302816950841665],
        'fallbacks': 0,
        'final_norm': 0.6435699546937286,
    },
    'ks-afn': {
        'indices': [0, 1, 6, 7, 4, 5, 15, 14],
        'weights': [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        'score_trace': [0.7852627661454067, 0.6883465296697153, 0.7541169504930741, 0.679954044545556, 0.7343861804418528, 0.6743547549464504, 0.7207668686556037, 0.6703559228286256],
        'potential_trace': [5.656854249492381, 4.80429840435229, 4.13399808545668, 3.6556508370339946, 3.257154298736887, 2.9512192919042137, 2.687187099194311, 2.4747519709993293, 2.286988541018597],
        'fallbacks': 0,
        'final_norm': 0.49999999999999983,
    },
    'swap-exact-s1': {
        'indices': '6ad1de0aed133429',
        'initial': '66c989493e8fe598',
        'lambda_trace': [2.6142294109777714e-17, 3.6380298018632694e-16, 0.9228543252036628],
        'trace_minus': [2.2130354025868933e-08, 3.156501503575608e-08],
        'trace_plus': [0.03105925060998304, 0.04411852523846565],
        'trace_norm': [1.0000000000010403, 1.0000000000000002],
        'swaps': 2,
        'fallbacks': 0,
    },
    'swap-exact-s2': {
        'indices': 'bd164e241debc675',
        'initial': '07baef59a5c96ca7',
        'lambda_trace': [-4.575674351189193e-16, -1.0690469870086653e-16, 0.9026760115176145],
        'trace_minus': [2.0262931274329896e-08, 2.748392893328581e-08],
        'trace_plus': [0.03103428176631413, 0.0440793471864994],
        'trace_norm': [1.000000000001093, 1.0000000000000002],
        'swaps': 2,
        'fallbacks': 0,
    },
    'swap-aipe-s1': {
        'indices': '0de8c9b7d66849c8',
        'initial': '66c989493e8fe598',
        'lambda_trace': [2.6142294109777714e-17, -3.842279091599435e-16, 0.9122698211546513],
        'trace_minus': [7.098104784248882e-05, 0.00011152188074863021],
        'trace_plus': [0.03105925060998304, 0.044114751022393234],
        'trace_norm': [1.0000000000010403, 0.9999999999999996],
        'swaps': 2,
        'fallbacks': 0,
    },
    'swap-aipe-s2': {
        'indices': 'ec1973e844b74879',
        'initial': '07baef59a5c96ca7',
        'lambda_trace': [-4.575674351189193e-16, 1.0254954377845117e-16, 0.9020177433060869],
        'trace_minus': [7.026687936139505e-06, 2.176223830945661e-08],
        'trace_plus': [0.03103428176631413, 0.04407897172475885],
        'trace_norm': [1.000000000001093, 1.0000000000000002],
        'swaps': 2,
        'fallbacks': 1,
    },
    'swap-afn-s0': {
        'indices': 'ebfb0f35a302afa9',
        'initial': 'c4f1bbbccde1b6f4',
        'lambda_trace': [-1.3010426069826053e-18, 1.0006133577519634],
        'trace_minus': [1.8501149194941767e-09],
        'trace_plus': [0.05155388377968425],
        'trace_norm': [0.9999999999999999],
        'swaps': 1,
        'fallbacks': 0,
    },
    'bss-reference': {
        'indices': [0, 2, 3, 4, 5, 6, 8, 9],
        'weights': [62.458619895103034, 21.921384320324474, 41.327095799174785, 3.479971060957975, 11.49292473341548, 7.976608163760503, 20.10342524494095, 15.196703628511507],
        'upper_potentials': [0.5, 0.49275362318840576, 0.49142351199572315, 0.46783318016600933, 0.46281430857454325, 0.44908770257318487, 0.4293895239453522, 0.40550617430746005, 0.4008369073106386, 0.3949079071026784, 0.38482860798022595, 0.3823933252108406, 0.3738287168930102, 0.3699373320375864, 0.3637635855548942, 0.36071933478328, 0.35003483661973367],
        'lower_potentials': [0.5, 0.4977777777777778, 0.4973681467011717, 0.4898150439955128, 0.48806460061584, 0.4832532757358499, 0.4757486705670564, 0.46511973583076865, 0.4630884826345765, 0.46037847763012374, 0.45532196740548436, 0.4541671025828821, 0.45021360061850874, 0.448015283812678, 0.4447322646606682, 0.44292468007798297, 0.4358651457948173],
        'fallbacks': 0,
        'tree_kind': 'scan',
    },
    'bss-fast': {
        'indices': [0, 1, 4, 5, 6, 8, 9, 10, 11],
        'weights': [78.29343271270558, 7.7990760959434295, 7.457749993887125, 3.9979232774418327, 2.972490536102383, 13.030439342577637, 36.84105129525838, 18.28083736193623, 9.213782607182443],
        'upper_potentials': [0.5, 0.49275362318840576, 0.47965079143807365, 0.4559407068394004, 0.4528517514341739, 0.44327951308836, 0.4341695953784921, 0.4173754408812378, 0.41629190223265, 0.4110697397123157, 0.38692392516593366, 0.3826507671588427, 0.35771161548310215, 0.3414683281223073, 0.33528921923926547, 0.3194093717278177, 0.3108164919645419],
        'lower_potentials': [0.5, 0.4977777777777778, 0.4936217904330688, 0.48532895224949735, 0.48425714977928347, 0.48070905221901783, 0.4773134319531781, 0.46990012710725904, 0.46945835169115974, 0.46716694837581196, 0.45517880297424185, 0.45317594777494963, 0.4382554983924073, 0.4286915008072978, 0.4251428117101977, 0.41497349838560016, 0.40960183723594906],
        'fallbacks': 0,
        'tree_kind': 'vector',
    },
    'bss-fast-matrix': {
        'indices': [0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15],
        'weights': [8.187792300888615, 6.211164274311786, 1.963568084052308, 2.1778431673238265, 3.568309510223455, 5.8789199240955385, 1.7798972235887327, 5.366534327530373, 1.896399609971008, 6.134015182996935, 8.455717577674289, 5.345474004598397, 2.120151351851224, 2.7272209503579528],
        'upper_potentials': [0.5, 0.4980097302078726, 0.4924436493385339, 0.4840215488938828, 0.4734515144883635, 0.4658935094488187, 0.4561695957854728, 0.44153179837645684, 0.44000523967961275, 0.43333210852041615, 0.42472384904902083, 0.40986183589377156, 0.4027165565146493, 0.3952271062104409, 0.3889679970745692, 0.38785310985690874, 0.374973439929104, 0.37314200498562466, 0.37025569907258093, 0.36892870257681154, 0.3593685443255926, 0.3538731716537633, 0.3470774066203653, 0.3365407704589054, 0.3290439843610668, 0.32726179704419145, 0.32532879348442667, 0.32362151323889765, 0.317705119039515, 0.31237129187922913, 0.3057630024741238, 0.3028377562674689, 0.29953606087407636],
        'lower_potentials': [0.5, 0.49944805593033237, 0.49789513258754126, 0.4954537001978846, 0.49220452110223467, 0.4897901808734656, 0.4865303932936165, 0.4811179802399881, 0.4806028771519665, 0.4782131859583574, 0.4749438926837386, 0.4683532814839775, 0.46541736927908, 0.4622697654836627, 0.45952943731867757, 0.45905752085532103, 0.4524693998134911, 0.45161804303026826, 0.450360908923135, 0.44977209504577353, 0.44497497119369445, 0.44229510690074225, 0.43875989992001885, 0.4323074462703971, 0.42778236691895766, 0.42677909008857806, 0.4257473967937, 0.424827148309691, 0.4213472796089369, 0.41799448073342105, 0.41360340057424094, 0.41179662119151117, 0.4096511937247256],
        'fallbacks': 0,
        'tree_kind': 'matrix',
    },
}


@pytest.mark.parametrize("backend", ["exact", "aipe", "afn"])
def test_ks_select_golden(backend):
    family, result = ks_outcome(backend)
    assert ks_record(result) == GOLDEN["ks-" + backend]
    a_n = result.barrier_sequence[-1]
    factor = {"exact": 1.0, "aipe": 1.0 / KS_C, "afn": 2.0 / KS_C}[backend]
    norm = np.linalg.eigvalsh(result.selection.reconstruct(family))[-1]
    assert norm <= factor * a_n


@pytest.mark.parametrize("case", list(SWAP_CASES))
def test_swap_round_golden(case):
    family, result = swap_outcome(case)
    record = swap_record(result)
    assert record == GOLDEN["swap-" + case]
    _, d, eps, gamma, *_ = SWAP_CASES[case]
    assert record["swaps"] >= 1  # the random start is singular
    rows = family.vectors[result.selection.indices]
    assert np.linalg.eigvalsh(rows.T @ rows)[0] > 1.0 - gamma * eps


def test_aipe_swap_goldens_record_a_fallback():
    # some aipe proposal in the recorded cases fails to verify, so the goldens
    # pin the removal scan that replaces it as well as the proposals
    aipe_cases = [case for case in SWAP_CASES if SWAP_CASES[case][8] == "aipe"]
    assert sum(GOLDEN["swap-" + case]["fallbacks"] for case in aipe_cases) >= 1


def test_swap_round_ignores_aipe_config():
    # swap_outcome passes AipeConfig.desk(), as the benchmark does
    family, result = swap_outcome("aipe-s1")
    _, _, eps, gamma, c, tau, n, m, backend, seed = SWAP_CASES["aipe-s1"]
    plain = expdesign.swap_round(
        family, np.full(m, n / m), n, eps, gamma=gamma, c=c, tau=tau, backend=backend, seed=seed
    )
    assert swap_record(plain) == swap_record(result)


BSS_VARIANTS = ["reference", "fast", "fast-matrix"]


@pytest.mark.parametrize("variant", BSS_VARIANTS)
def test_sparsifier_golden(variant):
    record = bss_record(bss_outcome(variant))
    assert record == GOLDEN["bss-" + variant]
    if variant == "fast-matrix":
        assert record["tree_kind"] == "matrix"


def _regenerate():
    """Print the GOLDEN dict for the current code (run from tests/)."""
    golden = {}
    for backend in ["exact", "aipe", "afn"]:
        golden["ks-" + backend] = ks_record(ks_outcome(backend)[1])
    for case in SWAP_CASES:
        golden["swap-" + case] = swap_record(swap_outcome(case)[1])
    for variant in BSS_VARIANTS:
        golden["bss-" + variant] = bss_record(bss_outcome(variant))
    print("GOLDEN = {")
    for key, record in golden.items():
        print(f"    {key!r}: {{")
        for field, value in record.items():
            print(f"        {field!r}: {value!r},")
        print("    },")
    print("}")


if __name__ == "__main__":
    _regenerate()
