"""Golden pins: exact numbers from the data generator, the rollouts, the
optimizer and a scripted evolution run.

The determinism tests compare two runs of the same code, so they cannot
see a change that moves every run the same way.  These pins can: each
value below was taken from the code and must stay unchanged under any
refactor that claims to keep the numbers.  If a pin moves, find the
cause; do not re-pin.

Six pins run matrix products through OpenBLAS: the network specs'
backward pins, the fit, the evolve archive and the lv2 sparse
regression (through lstsq).  numpy's OpenBLAS picks a CPU kernel at run
time, and another kernel rounds some products differently in the last
bits.  numpy likewise picks the SIMD kernels of exp and log (and so of
the sigmoid) when it starts, and another level moves their last bit,
which moves the fit, the evolve archive and backward pins 3 and 4.  So
these pins hold only on the platform below.  When one fails, its message
names that platform, the running one and the parts that differ.  The
backward, fit and archive pins also keep a few values as repr probes; the
hash alone decides a pin, and on a mismatch the message adds how many ulp
the probes moved, which tells a last-bit platform drift from a changed
computation.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import math
import os
import re
import struct
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest

import replay_fixtures
from conftest import random_params
from hdtwin.agents import ScriptedClient
from hdtwin.dsl import canonicalize, parse_model_spec
from hdtwin.engine import (
    Dataset,
    Evaluator,
    TransitionBatch,
    init_params,
    load_csv_dataset,
    load_params,
    read_json,
    rollout_mse,
    save_dataset,
    save_params,
)
from hdtwin.optim import OptimConfig, fit
from hdtwin.orchestrator import (
    EvolveConfig,
    evolve,
    make_modeling_context,
    run_experiment,
    write_run_archive,
)
from hdtwin.systems import (
    BUILTIN_IDS,
    GenConfig,
    builtin_system,
    generate_dataset,
    system_description,
)
from test_engine import BITS_SPEC, GUARD_ROWS, WS_SCHEMA, WS_SPECS

# where every pin below was checked to hold: numpy's version, the version
# and run-time core of the OpenBLAS bundled with it, and numpy's enabled
# SIMD dispatch targets
PINNED_ON = {"numpy": "2.4.6", "OpenBLAS": "0.3.31.188.0", "core": "SkylakeX",
             "SIMD": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
PINNED_AT = "1ed99e4831c5416eea9b0845b835eec36cbc0bf5"  # git sha
PARTS = {"numpy": "the numpy version", "OpenBLAS": "the OpenBLAS version",
         "core": "the BLAS core", "SIMD": "the SIMD targets"}


def running_platform() -> dict[str, str]:
    """This process's platform, read the way PINNED_ON was."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    simd = " ".join(t for t in _multiarray_umath.__cpu_dispatch__
                    if _multiarray_umath.__cpu_features__.get(t))
    here = {"numpy": np.__version__, "OpenBLAS": "none", "core": "none", "SIMD": simd}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if libs:
        lib = ctypes.CDLL(str(libs[0]))  # already loaded by numpy: the same instance
        config, core = lib.scipy_openblas_get_config64_, lib.scipy_openblas_get_corename64_
        config.argtypes = core.argtypes = []
        config.restype = core.restype = ctypes.c_char_p
        here["OpenBLAS"] = config().decode().split()[1]  # "OpenBLAS <version> <options>"
        here["core"] = core().decode()
    return here


def platforms(probes: Sequence[str] = (), pinned: Sequence[str] = ()) -> str:
    """The failure message of a platform-sensitive pin; given the reprs of
    its probes and their pinned reprs, it adds how far they moved."""
    here = running_platform()
    differ = [PARTS[k] for k in PINNED_ON if here[k] != PINNED_ON[k]]
    cause = (" and ".join(differ) + " differ, which can move the last bits."
             if differ else "the platform is the same, so the code moved the bits.")
    pinned_on, running = (", ".join(f"{k} {v}" for k, v in p.items()) for p in (PINNED_ON, here))
    message = f"pinned on {pinned_on} at {PINNED_AT}; this run is on {running}: {cause}"
    return f"{message} {drift(probes, pinned)}" if pinned else message


def _ordered(v: float) -> int:
    """v's float64 bits as an integer that counts ulps across zero."""
    bits = struct.unpack("<q", struct.pack("<d", v))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def drift(probes: Sequence[str], pinned: Sequence[str]) -> str:
    """The largest ulp and relative difference of the probe reprs from the
    pinned ones."""
    if len(probes) != len(pinned):
        return f"there are {len(probes)} probes, where {len(pinned)} were pinned."
    pairs = [(float(p), float(g)) for p, g in zip(pinned, probes)]
    if not all(math.isfinite(g) for _, g in pairs):
        return "a probe is no longer finite."
    ulps = max(abs(_ordered(p) - _ordered(g)) for p, g in pairs)
    if not ulps:
        return "the probes did not move: the hashed bytes moved elsewhere."
    rel = max(abs(g - p) / max(abs(p), abs(g)) for p, g in pairs if p != g)
    return f"probes moved by at most {ulps} ulp ({rel:.1e} relative)."


PROBED = 8  # how many leading entries of a parameter or gradient vector a pin probes
# the flat derivative entries at 6000 rows that every backward pin probes:
# without numpy's AVX-512 kernels, 190 of pin 3's 12000 entries move (its
# exp and sigmoid), and these four among them, 2006 the most (6.0e-14)
DERIVATIVE_PROBES = (72, 94, 284, 2006)

CANCER_FAMILY = tuple(s for s in BUILTIN_IDS
                      if s.startswith("cancer") or s.startswith("synthetic-"))

# sha256 of the save_dataset tree of every split, GenConfig(n=3, seed=7)
PLAIN_SHA = {
    "cancer": "8496c4a68d0b9f4d7236718c689dceeb07baae433bb492e62c29822de8e1576e",
    "cancer-chemo": "a5c90de16680fe29f3baaf90d431c8841568f6874d9db0941b3a85562e2a4f33",
    "cancer-chemo-radio": "e5d5707eb5fd12f2e9ca8da8f0c1821a4fa049afe9ac96e8c347e882ba15a3b3",
    "seir-covid": "837412c155d4846e75b08d49df1ab12478229dd257127327b72fe3e5561daee1",
    "lv2": "a1b41af91d44c5a71b3cb7b19d1b10c97f8ad043dd4f6fe0eab544ab10fbc3ad",
    "lv3-plankton": "de03cd989426844cb254b5b9fb40a5ae096ce4342675642875cb75d1e03b2f88",
    "synthetic-1": "7fc4375a7f4f9b0b3bd3a78773fa431ac6761ffa7dc749509981eed5579c71ad",
    "synthetic-2": "593e41b76b9a8544db919498bdafc8eb624638741ffb008d53f98434da488396",
    "synthetic-3": "500baf3245334e8a96915e1a6a57eade722b88e1c6da7241eb728468f3fb9169",
    "synthetic-4": "53d0a03a846d690e99899fed1dccc64cf3da03be4d0ed17874c981f1a5556573",
    "synthetic-5": "98957cbb274539b6defef64e0ee90a34b4186cbe48cbad7b43c8742c73db740d",
}

# the same with ood=True
OOD_SHA = {
    "cancer": "a23c666e03bc67674f08ca71b5e70d6be5a4ee82c424910f2f83fb9b9d33b1bc",
    "cancer-chemo": "5e172321a20ea50464cac2d6a0d82173664045fd7536725ada00c06a35b9319b",
    "cancer-chemo-radio": "00b599d901800aeee6f57b26b95be0c480ec03ca6068a1c05fa407228b5d22a9",
    "synthetic-1": "95dc4eea3737148b789ba2d8abebb037ac04159bc6aab63e30bd2bd682d3f79d",
    "synthetic-2": "3bb6bc55b0bd1743708a192e7c582f8fa851a0caaf1305e2e60a8a039b5042e1",
    "synthetic-3": "a469250e5c57dbd39ceb470f468b1e4c94d943282d8f377cf4763825c7168436",
    "synthetic-4": "97a9bccb4be11c6ffaadd4bc77635b72f43810034534932a04263b52ae0d004d",
    "synthetic-5": "a4b7738225f6467fba6cc214f5630c048d8532b426bcf985a1d283f69b90b8a3",
}

# seir-covid with intervention=True
INTERVENTION_SHA = "7434b8c8bab9720f16219cfa9a9363be925229084bce4aca9d2e24716320ab57"

# sha256 of everything a built-in system defines: see catalogue_sha256
CATALOGUE_SHA = {
    "cancer": "411f2b6b81afb3216e885e10362789c3ebabf364ed1bc5871863de5fb89d0186",
    "cancer-chemo": "d5e1a7a8ef3315318b2f92cfab252948b4cbc31c6816addc3f308ece8318dafb",
    "cancer-chemo-radio": "f635632bc37699e87f498f4a63e8e7d5b353896dea56638d2200fb44853ca415",
    "seir-covid": "3a5dc01155675111628d791eed4b3bd4048a78f5ff9434450e1f65ed3be5aab5",
    "lv2": "cdc11a5822538c99e394c887947241c3602564345072b1ae58ca9eeda6c2a9d7",
    "lv3-plankton": "63b49a5b72c7b615b4d25cef0584f4f678ad178afea605972d5d60664fb2f1e4",
    "synthetic-1": "f746ebb16ea14037b4ecec8cdb4b33132cb48746bc66ccbd27f5ca24134b70e9",
    "synthetic-2": "1227ea2dfa4cd06fad5c78a3a15ff29cf94aee3fb8c282c1e09d61530c1e1353",
    "synthetic-3": "911545b9b89888e2e0d4ed78dfc7e11dea0f4b9e16e3407c26a1c315bf0fd8f2",
    "synthetic-4": "3cacff63b0a5919248d72097e9cfd916547c118421398af084221f4532c96b3d",
    "synthetic-5": "c8c0e3892c57ee679fcc8797a83fe3302d120cb65f50d8b8b2eae8a7eb172e0e",
}

# repr of rollout_mse under perturbed parameters
ROLLOUT_MSE_GENERATED = {
    "synthetic-1": "708.6562206993364",
    "seir-covid": "0.037097216400288624",
    "lv3-plankton": "0.04117154766087214",
}
ROLLOUT_MSE_CSV = {
    "train": "679.3518265293654",
    "val": "0.0029284023819504345",
    "test": "4.020101726415571e-05",
    "mixed": "467.75087658795013",
}

# sha256 of the states and times bytes of a synthetic-1 rollout from t0 = 19
ROLLOUT_T0_STATES = "9f1abfc190c87c8e8afb73a85e7caf8e6c0803634666fb471b2e863fbf7f479d"
ROLLOUT_T0_TIMES = "5dba6f6bec5bd810b251f58d78cdcd77a5d971f8f065d7db922fbe937e5fe673"

# repr of the curves of an 8-epoch fit of the replay SPEC_5 on
# cancer-chemo-radio GenConfig(n=6, seed=3), and the sha256 of its params.json
FIT_TRAIN_CURVE = ("[19511.748417118113, 6278.471196514612, 3975.8991916267114,"
                   " 2979.4767520826717, 1547.6535124801867, 301.1026164063002,"
                   " 167.56621980194424, 231.69563188991472]")
FIT_VAL_CURVE = ("[23418.464545837753, 5246.933954363322, 1547.3357356867223,"
                 " 1133.3945480763987, 729.5604290215385, 232.54701238419412,"
                 " 73.48803581772422, 119.47171486317121, 88.28789797686295]")
FIT_PARAMS_SHA = "ec6940759182e94232b5e649d3d50e28de0793cb10626bb540c08b90ff05e784"
# with the curves, the probes that only explain a failing fit pin: repr of
# the first PROBED fitted values and of math.fsum over all 573 of them
FIT_PARAMS_PROBES = ("0.0012207257984850044", "0.3136083601588566", "0.08361642813484292",
                     "1032.4078573029146", "0.09272476364746363", "-0.06464193426369305",
                     "0.0060832792410380546", "0.08030322396747291", "1033.2439741567528")

# sha256 of the write_run_archive tree of the scripted six-generation evolve
# on cancer-chemo-radio GenConfig(n=5, seed=3), 10 fixed epochs per fit
EVOLVE_ARCHIVE_SHA = "45f68c02bf24cbc43d266c242b9233689cfa19d2511e55a383a91963faf685f6"
# with each archive pin, the probes that only explain a failing one (see
# result_probes): repr of best_upsilon and test_upsilon of each result.json,
# then of the leading values and the fsum of each params file, in path order
EVOLVE_ARCHIVE_PROBES = ("1.1115744734746578", "1.042668210962142", "0.01423766961124064",
                         "0.028466413680185147", "0.20298242694945043", "0.049710309905366026",
                         "999.957545291459", "1000.2529421116053", "0.022883086055312054",
                         "0.028319179513459036", "0.061244418521260294", "0.11244668409003139",
                         "0.01423766961124064", "0.028466413680185147", "0.20298242694945043",
                         "0.049710309905366026", "999.957545291459", "1000.2529421116053",
                         "0.017774118568144023", "0.034035600987978566", "0.326655600977309",
                         "-0.0014343608805612797", "0.054658211478696636", "1015.9586041930594",
                         "1016.3902933641909", "-0.008848713408713375", "0.14535345792279997",
                         "0.11549707135578456", "0.07535139638758105", "0.051040870087597744",
                         "1032.0466065414173", "0.507574235230883", "0.5402412553954641",
                         "1030.597006532685", "0.0073024870765617455", "0.31100885926486294",
                         "-0.05997819030162788", "0.005000266652073826", "0.07948149401904787",
                         "0.08205399841226854", "1032.406971761443", "0.09638226055403386",
                         "1032.5383629473868", "0.034947092922044544", "0.418502364264686",
                         "0.12807018419889335", "-0.002996610114486666", "0.04059497876367067",
                         "0.05167887383042112", "1030.0338137701672", "-1.9791987472147357",
                         "1044.621817968295")

# sha256 of the run_experiment output tree, seeds 0 and 1, GenConfig(n=5,
# seed=3), one generation with 10 fixed epochs; the agent methods get the
# first replay fixture reply
EXPERIMENT_SHA = {
    ("cancer-chemo-radio", "zero-shot"):
        "982cea8344bb2ad4374db5bae2edee0604a88ef3d9344ee9d97e1458f79060ec",
    ("cancer-chemo-radio", "zero-optim"):
        "8029717f6c45a0d95afa100528b2e3ce32c2f25992aace62a2ed8fcec654ab50",
    ("lv2", "sindy"):
        "36f0b51e816f336f3fee39087a5aac22e8c01108380cd0883688b8861e5a1640",
    ("lv2", "baseline:lv2"):
        "b45d748dab8f2e9d0045b4a1ff707310c9fab0591e917aeb2409a116d2547ad4",
}
EXPERIMENT_PROBES = {
    ("cancer-chemo-radio", "zero-optim"):
        ("3.4091917929418507", "3.3182460295939475", "3.232410212841444", "6.223868136978864",
         "0.010930764277044876", "0.02911207750350628", "0.04868501351630776",
         "0.08872785529685892", "0.010930764277044876", "0.02911207750350628",
         "0.04868501351630776", "0.08872785529685892", "0.024666852780263288",
         "0.03197946591464921", "0.05625997538847288", "0.11290629408338537",
         "0.024666852780263288", "0.03197946591464921", "0.05625997538847288",
         "0.11290629408338537"),
    ("cancer-chemo-radio", "zero-shot"):
        ("146.35158423320888", "132.4742023207778", "41.76981294831119", "134.6577373077786",
         "0.1", "0.05", "0.03", "0.18", "0.1", "0.05", "0.03", "0.18", "0.1", "0.05", "0.03",
         "0.18", "0.1", "0.05", "0.03", "0.18"),
    ("lv2", "baseline:lv2"):
        ("0.004953639533047691", "0.006711141218305081", "0.6508919024373933",
         "0.27079637130211187", "0.10631653779419953", "0.401535362738635",
         "1.4295401742723397", "0.6458162685479374", "0.26855902682153004",
         "0.10621675563486037", "0.40207002127854297", "1.4226620722828707"),
    ("lv2", "sindy"):
        ("5.8541839262525e-11", "7.173609037055273e-11", "1.099955907937004",
         "-0.39998847214100597", "-0.39996455054999114", "0.0999962575722142",
         "0.39999914281822113", "1.0999563313095428", "-0.3999884888923269",
         "-0.399965160665014", "0.09999631058357433", "0.3999989923357763"),
}

# The backward pass: test_engine's WS_SPECS and BITS_SPEC, evaluated by
# one evaluator at M = 1, 7, 1000 and 6000 rows.  The first rows put the
# denominators c * y (c = 1.0) and x - a at and around the guard.
BITS_ROWS = (1, 7, 1000, 6000)
# per spec: sha256 over the row counts of repr(loss) + grads.values bytes,
# and of the derivatives bytes
BACKWARD_SHA = {
    0: ("03c8d61aba0be5e275efe1b9525f560f4481df57e189fcebb2f720fa69757de4",  # relu hybrid
        "b116b6f5ed2a9a2cb4077c55f3913369b83094cf739b5609de9b033bea93a273"),
    1: ("27f5d1486cf91579ca3879934968d89c67ff766e5e77a2a4813a908392a302c6",  # leaky_relu hybrid
        "318c1de64f0b28e5d933d745de31369f59d518874fed47051b8cd253ad0d8d24"),
    2: ("5d07f643de715eb31e7af19cdfbf893243947ee48c579e0e418738d5af4d8976",  # tanh hybrid
        "ab03fd971a42ef6315327b62d5e38d14c18c20691bf691f1e95d8cdb107417ae"),
    3: ("0f2c271ef20d19b52178a2a7a4ec27c45c5848a3d34b7d5f0fa17bf92857d1d5",  # sigmoid, pow, div and exp
        "012468a19f5308f939b7e5c281d07460c8dd0ff79f7bae7e79c0448a8db736fd"),
    4: ("83a4ae7312825d33f9d0b9b2fc05b4b70dec650a20cd7fc76fd52bf93e541fc7",  # BITS_SPEC
        "8b3d355e3a5af76670e9e4e95a99ac3ca0fd0b65f871a42795903b90562e57ee"),
}
# 3 and 4 were taken again, the commit after ab88aa8, when the sigmoid
# moved from scipy's expit to engine.sigmoid; CHANGES.md gives the drift
# per spec, probes that only explain a failing pin: repr of the loss at
# each row count, then of the first PROBED gradient entries at 6000 rows,
# then of the DERIVATIVE_PROBES entries there
BACKWARD_PROBES = {
    0: ("12.710296560723192", "8.920654322566909", "13.963059656379432", "13.940987886707932",
        "1.8392714084596478", "-3.05899544101056e-05", "0.7880430795142278",
        "0.6663002120544261", "0.0002198061912158097", "-0.8025968519954328",
        "0.00035872757370234386", "2.914662167284723", "-0.5008340980685944",
        "0.2616828385845511", "-1.5910668713271932",
        "4.471324033386032"),
    1: ("4.528101629970449", "24.554299441352974", "22.69210782497904", "23.34536393517868",
        "-0.44885024936432694", "-0.01940109772919805", "0.08243477054845669",
        "0.22717132245339908", "0.19150392434796526", "0.22270001919328866",
        "-0.07851988127977841", "-0.03302295736419898", "-4.494980497589418",
        "-2.074866139561138", "-2.1555923970429576",
        "-1.1653105754905022"),
    2: ("9.570538379615236", "11.727212247218066", "11.123300797037112", "10.320863155084025",
        "-2.158781551662269", "0.024354766703198392", "0.007975853676202507",
        "0.0006758640482804477", "-0.009977821800186575", "-0.0033593240537677016",
        "-0.1268434827035998", "-0.03168388355707643", "-2.4765711864147693",
        "-1.9264026762759772", "-3.6223190784344403",
        "-1.9260115160019886"),
    3: ("1091292142409.9832", "1091294469137.2013", "451795039539.99493", "437244484902.9964",
        "973508148.0516642", "-16108661361631.629", "-0.8155011348897734",
        "-1.815200334241102", "-0.6567801622334974",
        "0.003717985581901284"),
    4: ("91.01695248759262", "73.73588558493346", "63.484315567236365", "62.55432834887436",
        "-0.9304529950057233", "0.2246821724941448", "1.7480919949363594",
        "0.008304979286836947", "-2.3777002141906083", "11.26542684137128",
        "26.891248044608233", "37.43302348662259", "-17.910031387992934",
        "-18.390913643540344", "1.3235957138699246",
        "-18.3739160424797"),
}


def result_probes(root: Path) -> list[str]:
    """repr of best_upsilon (a baseline seed has none) and test_upsilon of
    every result.json under root, then of the first PROBED values and of
    math.fsum over all values of every params file (best-params.json and
    each population entry's params.json), each in path order."""
    docs = map(read_json, sorted(root.rglob("result.json")))
    probes = [repr(doc[key]) for doc in docs for key in ("best_upsilon", "test_upsilon")
              if key in doc]
    for path in sorted(root.rglob("*params.json")):
        values = load_params(path).values
        probes += [*map(repr, values[:PROBED].tolist()), repr(math.fsum(values))]
    return probes


def tree_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def dataset_sha256(sys_id: str, cfg: GenConfig, out: Path) -> str:
    for split, ds in generate_dataset(builtin_system(sys_id), cfg).items():
        save_dataset(ds, out / split, seed=cfg.seed)
    return tree_sha256(out)


def spec_content(spec) -> tuple:
    """A spec's content in declared order, without its dataclasses' field
    names: each component's target, expression tree as nested (kind,
    value, name, op, args) tuples and residual; each parameter's (name,
    init); each network's declaration.  So a field that holds no content
    can be added to or removed from a spec class without moving a pin."""
    return (tuple(dataclasses.astuple(c) for c in spec.components),
            tuple((p.name, p.init) for p in spec.params),
            tuple(dataclasses.astuple(m) for m in spec.mlps))


def catalogue_sha256(sys_id: str) -> str:
    """One hash over a built-in system's spec (its canonical text and its
    content in declaration order), schema, sizes, family, title, notes,
    policy, true parameters and the two prompt texts built from them."""
    system = builtin_system(sys_id)
    fields = (canonicalize(system.spec).text, spec_content(system.spec), system.schema,
              system.horizon, system.default_n, system.family, system.title,
              system.var_notes, system.policy, system.true_params.values.tolist(),
              system_description(system), make_modeling_context(system, 20).requirements)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def perturbed(system):
    params = system.true_params.copy()
    for name in params.scalars:
        params.scalars[name] *= 1.3
    return params


def synthetic_csv_splits(path: Path) -> dict[str, Dataset]:
    """A generated synthetic-1 trajectory written as one CSV series and split
    chronologically, so the val and test blocks start at t0 != 0."""
    system = builtin_system("synthetic-1")
    tr = generate_dataset(system, GenConfig(n=1, seed=3))["train"].trajectories[0]
    with open(path, "w") as fh:
        fh.write("t,x_1,x_2,u_1,u_2\n")
        for row in np.hstack([tr.times[:, None], tr.states, tr.actions]):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return load_csv_dataset(path, system.schema)


def t0_rollout():
    system = builtin_system("synthetic-1")
    rng = np.random.default_rng(19)
    actions = np.column_stack([5.0 * (rng.random(40) < 0.5), 2.0 * (rng.random(40) < 0.5)])
    return Evaluator(system.spec, system.schema).rollout(system.true_params, [640.0, 1.5],
                                                         actions, dt=0.5, t0=19.0)


@pytest.mark.parametrize("sys_id", BUILTIN_IDS)
def test_catalogue_pin(sys_id):
    assert catalogue_sha256(sys_id) == CATALOGUE_SHA[sys_id]


@pytest.mark.parametrize("sys_id", BUILTIN_IDS)
def test_plain_dataset_pin(sys_id, tmp_path):
    assert dataset_sha256(sys_id, GenConfig(n=3, seed=7), tmp_path) == PLAIN_SHA[sys_id]


@pytest.mark.parametrize("sys_id", CANCER_FAMILY)
def test_ood_dataset_pin(sys_id, tmp_path):
    assert dataset_sha256(sys_id, GenConfig(n=3, seed=7, ood=True), tmp_path) == OOD_SHA[sys_id]


def test_intervention_dataset_pin(tmp_path):
    cfg = GenConfig(n=3, seed=7, intervention=True)
    assert dataset_sha256("seir-covid", cfg, tmp_path) == INTERVENTION_SHA


@pytest.mark.parametrize("sys_id", sorted(ROLLOUT_MSE_GENERATED))
def test_rollout_mse_pin_generated(sys_id):
    system = builtin_system(sys_id)
    test = generate_dataset(system, GenConfig(n=3, seed=7))["test"]
    ev = Evaluator(system.spec, system.schema)
    assert repr(rollout_mse(ev, perturbed(system), test)) == ROLLOUT_MSE_GENERATED[sys_id]


def test_rollout_mse_pin_csv_blocks(tmp_path):
    system = builtin_system("synthetic-1")
    parts = synthetic_csv_splits(tmp_path / "series.csv")
    assert parts["test"].trajectories[0].times[0] > 0.0
    parts["mixed"] = Dataset([parts[s].trajectories[0] for s in ("train", "val", "test")],
                             system.schema, "test")
    ev = Evaluator(system.spec, system.schema)
    got = {name: repr(rollout_mse(ev, perturbed(system), ds))
           for name, ds in parts.items()}
    assert got == ROLLOUT_MSE_CSV


def test_rollout_t0_pin():
    tr = t0_rollout()
    assert tr.times[0] == 19.0
    assert hashlib.sha256(tr.states.tobytes()).hexdigest() == ROLLOUT_T0_STATES
    assert hashlib.sha256(tr.times.tobytes()).hexdigest() == ROLLOUT_T0_TIMES


def test_fit_pin(tmp_path, monkeypatch):
    system = builtin_system("cancer-chemo-radio")
    data = generate_dataset(system, GenConfig(n=6, seed=3))
    spec = parse_model_spec(replay_fixtures.SPEC_5)
    # 360 training rows in batches of 100: three full batches and a short one
    cfg = OptimConfig(batch_size=100, max_epochs=8, patience=8, seed=2)
    checks = []  # the fit's parameters, copies and gradients share one layout
    check_params = Evaluator.check_params
    monkeypatch.setattr(Evaluator, "check_params",
                        lambda ev, params: checks.append(1) or check_params(ev, params))
    result = fit(spec, init_params(spec, seed=5), data["train"], data["val"], cfg)
    assert len(checks) == 1
    values = result.params.values
    probes = [*map(repr, result.train_curve), *map(repr, result.val_curve),
              *map(repr, values[:PROBED].tolist()), repr(math.fsum(values))]
    pinned = [*FIT_TRAIN_CURVE[1:-1].split(", "), *FIT_VAL_CURVE[1:-1].split(", "),
              *FIT_PARAMS_PROBES]
    assert repr(result.train_curve) == FIT_TRAIN_CURVE, platforms(probes, pinned)
    assert repr(result.val_curve) == FIT_VAL_CURVE, platforms(probes, pinned)
    save_params(result.params, tmp_path / "params.json")
    params_sha = hashlib.sha256((tmp_path / "params.json").read_bytes()).hexdigest()
    assert params_sha == FIT_PARAMS_SHA, platforms(probes, pinned)


def test_evolve_archive_pin(tmp_path):
    system = builtin_system("cancer-chemo-radio")
    data = generate_dataset(system, GenConfig(n=5, seed=3))
    cfg = EvolveConfig(generations=6, seed=0,
                       optim=OptimConfig(batch_size=200, max_epochs=10, patience=10, seed=0))
    ctx = make_modeling_context(system, 6, n_trajectories=5)
    result = evolve(ctx, system, data, cfg, ScriptedClient(replay_fixtures.evolution_replies()))
    assert [r.status for r in result.records] == ["inserted"] * 6
    write_run_archive(tmp_path, result, "cancer-chemo-radio", "evolve", 0, cfg)
    assert tree_sha256(tmp_path) == EVOLVE_ARCHIVE_SHA, platforms(
        result_probes(tmp_path), EVOLVE_ARCHIVE_PROBES)


def test_evolve_archive_pin_failure_sizes_the_simd_drift():
    """Without numpy's AVX-512 kernels the archive's best entry keeps its
    bits and only other population entries move (21 ulp, 2.5e-15 relative,
    on the pinning platform), so only the probes of every params file can
    size the drift."""
    ulps, rel = drift_without_avx512("test_evolve_archive_pin")
    assert ulps > 0 and rel < 1e-12


def backward_pass(text: str, seed: int) -> tuple[tuple[str, str], list[str]]:
    """The two backward-pin hashes, and the probes: repr(loss) at each row
    count, then the first PROBED gradient entries at the last, then its
    DERIVATIVE_PROBES entries."""
    spec = parse_model_spec(text)
    rng = np.random.default_rng(seed)
    params = init_params(spec) if text == BITS_SPEC else random_params(rng, spec)
    ev = Evaluator(spec, WS_SCHEMA)
    grad_sha, deriv_sha = hashlib.sha256(), hashlib.sha256()
    probes = []
    for m in BITS_ROWS:
        batch = TransitionBatch(
            rng.uniform(-2.0, 3.0, (m, 2)), rng.uniform(0.0, 5.0, (m, 1)),
            rng.uniform(0.0, 60.0, m), rng.uniform(-2.0, 3.0, (m, 2)))
        k = min(m, len(GUARD_ROWS))
        batch.x[:k, 0] = params.scalars["a"] + GUARD_ROWS[:k]
        batch.x[:k, 1] = GUARD_ROWS[:k]
        f = ev.derivatives(params, batch.x, batch.u, batch.t)
        deriv_sha.update(f.tobytes())
        if m == BITS_ROWS[-1]:  # before the evaluator's next pass may overwrite f
            deriv_probes = [repr(float(f.flat[i])) for i in DERIVATIVE_PROBES]
        loss, grads = ev.loss_and_grad(params, batch, 0.5)
        grad_sha.update(repr(loss).encode() + grads.values.tobytes())
        probes.append(repr(loss))
    probes += map(repr, grads.values[:PROBED].tolist())
    return (grad_sha.hexdigest(), deriv_sha.hexdigest()), probes + deriv_probes


@pytest.mark.parametrize("i", range(len(WS_SPECS) + 1))
def test_backward_pin(i):
    hashes, probes = backward_pass([*WS_SPECS, BITS_SPEC][i], seed=i)
    assert hashes == BACKWARD_SHA[i], platforms(probes, BACKWARD_PROBES[i])


def drift_without_avx512(test_id: str) -> tuple[int, float]:
    """How far the probes of a pin moved when it ran in a child process
    without numpy's AVX-512 kernels, where it must fail and blame the SIMD
    targets: (ulp, relative)."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           f"{__file__}::{test_id}"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "the SIMD targets" in proc.stdout, proc.stdout
    moved = re.search(r"probes moved by at most (\d+) ulp \((\S+) relative\)", proc.stdout)
    assert moved, proc.stdout
    return int(moved[1]), float(moved[2])


def test_backward_pin_failure_names_the_simd_difference():
    """Pin 4 without numpy's AVX-512 kernels fails with an ulp-sized drift."""
    ulps, rel = drift_without_avx512("test_backward_pin[4]")
    assert 0 < ulps <= 64 and rel < 1e-14


def run_experiment_tree(system_id: str, method: str, out: Path) -> str:
    cfg = EvolveConfig(generations=1, seed=0,
                       optim=OptimConfig(batch_size=200, max_epochs=10, patience=10, seed=0))
    reply = replay_fixtures.evolution_replies()[0]
    run_experiment(system_id, method, [0, 1], evolve_cfg=cfg, gen_cfg=GenConfig(n=5, seed=3),
                   client_factory=lambda seed: ScriptedClient([reply]), out_dir=out)
    return tree_sha256(out)


@pytest.mark.parametrize("system_id, method", sorted(EXPERIMENT_SHA))
def test_run_experiment_pin(system_id, method, tmp_path):
    tree = run_experiment_tree(system_id, method, tmp_path)
    assert tree == EXPERIMENT_SHA[system_id, method], platforms(
        result_probes(tmp_path), EXPERIMENT_PROBES[system_id, method])
