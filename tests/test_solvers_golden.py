"""Golden outputs of the three solvers on fixed seeds, compared exactly.

Every case records what a solver returned on a small seeded input: selected
indices and weights, per-iteration traces, swap and fallback counts.  The
comparison is `==`, not approx, so any change to the arithmetic or to the
order of random draws shows up here.  Long index arrays are compared by a
SHA-256 digest of their int64 bytes.

Besides the recorded values, each case asserts the solver's own guarantee:
the Kadison-Singer norm bound of its backend, and lambda_min > 1 - gamma eps
for swap rounding.
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
        'indices': [0, 1, 14, 15, 12, 13, 6, 7],
        'weights': [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        'score_trace': [0.7852627661454068, 0.6094272013032258, 0.7669632585228183, 0.6138360961559837, 0.7529264955551388, 0.617324831519761, 0.7418183943219994, 0.6201489748891174],
        'potential_trace': [5.656854249492381, 5.295751007577169, 4.740255780376881, 4.468913269793345, 4.079277238733166, 3.8683428529445996, 3.5800738049503575, 3.4115666418084967, 3.189729220259775],
        'fallbacks': 0,
        'final_norm': 0.49999999999999994,
    },
    'ks-aipe': {
        'indices': [11, 7, 1, 8, 4, 6, 9, 12],
        'weights': [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        'score_trace': [0.785262766145407, 0.751105595405475, 0.8095806431444806, 0.6690657580980285, 0.7798198127458899, 0.7050440479992951, 0.7268287916122158, 0.6554098941729862],
        'potential_trace': [5.656854249492381, 4.80429840435229, 4.162209657257307, 3.694830805534396, 3.2819336533567443, 2.980054720960011, 2.7148131284459103, 2.497336702467044, 2.302816950841665],
        'fallbacks': 0,
        'final_norm': 0.6435699546937286,
    },
    'ks-afn': {
        'indices': [0, 1, 14, 15, 6, 9, 10, 11],
        'weights': [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        'score_trace': [0.7852627661454067, 0.6883465296697153, 0.754116950493074, 0.6799540445455562, 0.7343861804418518, 0.676876429177219, 0.705736261917557, 0.6843058117814809],
        'potential_trace': [5.656854249492381, 4.80429840435229, 4.13399808545668, 3.6556508370339946, 3.257154298736887, 2.9512192919042137, 2.687651428688559, 2.47278215044155, 2.2872747635588873],
        'fallbacks': 0,
        'final_norm': 0.519371683989233,
    },
    'swap-exact-s1': {
        'indices': '6ad1de0aed133429',
        'initial': '66c989493e8fe598',
        'lambda_trace': [3.56447768799692e-17, 3.6756422998860967e-16, 0.9228543252036635],
        'trace_minus': [2.21303540257297e-08, 3.156501503578216e-08],
        'trace_plus': [0.03105925060912059, 0.04411852523868564],
        'trace_norm': [0.9999999999470879, 1.0000000000097204],
        'swaps': 2,
        'fallbacks': 0,
    },
    'swap-exact-s2': {
        'indices': 'bd164e241debc675',
        'initial': '07baef59a5c96ca7',
        'lambda_trace': [-2.392435444126438e-16, 1.5734755798688971e-16, 0.9026760115176145],
        'trace_minus': [2.026293127430456e-08, 2.748392893327235e-08],
        'trace_plus': [0.031034281766148128, 0.04407934718637825],
        'trace_norm': [0.9999999999907132, 0.9999999999946517],
        'swaps': 2,
        'fallbacks': 0,
    },
    'swap-aipe-s1': {
        'indices': 'cf01d3088ca04c5f',
        'initial': '66c989493e8fe598',
        'lambda_trace': [3.56447768799692e-17, -3.3546146952943487e-16, 0.9157619437228052],
        'trace_minus': [4.770121325890417e-05, 2.3855930767967364e-08],
        'trace_plus': [0.03105925060912059, 0.04411598741459988],
        'trace_norm': [0.9999999999470879, 1.0000000000197558],
        'swaps': 2,
        'fallbacks': 1,
    },
    'swap-aipe-s2': {
        'indices': 'bd164e241debc675',
        'initial': '07baef59a5c96ca7',
        'lambda_trace': [-2.392435444126438e-16, -1.1398756940329816e-16, 0.9026760115176145],
        'trace_minus': [2.554392070001343e-08, 2.174840067878759e-08],
        'trace_plus': [0.031034281766148128, 0.04407934686172557],
        'trace_norm': [0.9999999999907132, 0.9999999999788763],
        'swaps': 2,
        'fallbacks': 1,
    },
    'swap-afn-s0': {
        'indices': 'ebfb0f35a302afa9',
        'initial': 'c4f1bbbccde1b6f4',
        'lambda_trace': [-1.3010426069826053e-18, 1.0006133577519634],
        'trace_minus': [1.8501149195110762e-09],
        'trace_plus': [0.05155388378218838],
        'trace_norm': [1.0000000000936404],
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
        'indices': [0, 2, 3, 4, 5, 6, 8, 9],
        'weights': [93.03361127549391, 18.872129045624884, 9.770161814892345, 6.3687366823170155, 11.399828777413008, 5.811344727390718, 18.086260271939214, 12.431219108271597],
        'upper_potentials': [0.5, 0.4831804281345565, 0.47120190052219735, 0.44525237711277155, 0.4432635342162083, 0.42079274576595227, 0.41986317334392187, 0.40491388734360884, 0.3839252729539404, 0.3829721328992074, 0.3656427516159323, 0.34722928924482044, 0.3443403798320537, 0.3269989291625254, 0.32555500484709526, 0.32244817614989785, 0.3083509213542508],
        'lower_potentials': [0.5, 0.49547697368421056, 0.4921228647211455, 0.48422984711062816, 0.4836253569255385, 0.4759776009440076, 0.47566419756320744, 0.47013140066932857, 0.46105760777361554, 0.46066961951489294, 0.45312259737634475, 0.4440612134235697, 0.44268573238192294, 0.43229912326550085, 0.43157607476358945, 0.4297793767608557, 0.4208073653527431],
        'fallbacks': 0,
        'tree_kind': 'vector',
    },
    'bss-fast-matrix': {
        'indices': [0, 1, 3, 4, 5, 6, 7, 8, 10, 11, 12],
        'weights': [6.7471143406536065, 4.070813623651304, 3.6873387271125493, 4.002177076915839, 7.002544776658821, 7.890498053238174, 4.399097123541365, 3.7748983814408117, 5.597245853901729, 5.343566224009413, 2.8435556992136464],
        'upper_potentials': [0.5, 0.49254151421334097, 0.48271709369053983, 0.4712258675980947, 0.4622526964613732, 0.4515968879844512, 0.43727471395342654, 0.4229602882206138, 0.41910408762920626, 0.41071044272055524, 0.4032670838280751, 0.3983714010482368, 0.3982547358937385, 0.39087743051420004, 0.3907225117921812, 0.38320867040030177, 0.36970625740768337, 0.36662322491254457, 0.3560919367166688, 0.3533558212551171, 0.34311967602855487, 0.3411027436468669, 0.3329571721025159, 0.3276725764312275, 0.32330009441957097, 0.31589636193963794, 0.3154539257307358, 0.30871526167749785, 0.3007424396572764, 0.3003637460036062, 0.2961905194155584, 0.2900866665236659, 0.2864809697662413],
        'lower_potentials': [0.5, 0.49817342156051836, 0.495687521445361, 0.4926253444495767, 0.49014634803782353, 0.4870609159719425, 0.4825346518042266, 0.47764529729873434, 0.4764157862486911, 0.4735620574267551, 0.47098836478969364, 0.469259937818638, 0.4692197027665754, 0.46653254334721833, 0.4664783527750421, 0.46352152242807, 0.456988590690857, 0.45578639969113416, 0.4506554973007778, 0.44951428980891084, 0.4443667702700922, 0.4434352774988428, 0.4391631989360352, 0.43653052751960536, 0.4342336479133698, 0.43020149719286155, 0.4299822365348866, 0.4260309152200354, 0.4210873096259543, 0.42088045240929745, 0.41838252625895667, 0.41457515017677404, 0.41226930097856707],
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
    if SWAP_CASES[case][8] == "aipe":
        assert record["fallbacks"] >= 1  # an aipe proposal failed to verify
    rows = family.vectors[result.selection.indices]
    assert np.linalg.eigvalsh(rows.T @ rows)[0] > 1.0 - gamma * eps


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
