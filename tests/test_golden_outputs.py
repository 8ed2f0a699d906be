"""sha256 of the stdout of small CLI runs, recorded before the family
dispatch moved onto ``FamilyInstance``; every run must stay byte-identical.

The fbbst fixed-point maps were recorded later, before the contraction
factor moved onto ``families.dirichlet_moment``; that move changed none of
their bytes.

The ``simulate`` and ``corr-profile`` digests were recorded again when the
split recursion began to stop at the cutoff of ``treesim.small_laws`` and
to draw quadtree levels in chunks; the digests the mary and fbbst
``simulate`` runs had before stay pinned, with the cutoff set back to the
split threshold.

``corr-profile-mary-27`` and ``corr-profile-fbbst-59`` were recorded again
when the periodic variance and covariance factors became one Dirichlet
formula over the (m,t) law: their predicted rho moved, mary(27) by under
1e-15 relative (rounding in the variance factor) and fbbst(59) by 3e-11
relative, the error of the former fbbst covariance form G2 (2.3e-11 against
a 50-digit evaluation, 1.4e-14 for the (m,t) form).

``constants-mary-27``, ``fixpoint-TN_periodic-mary-27`` and
``corr-profile-mary-27`` were recorded again when ``roots.amplitude``
became one (m,t) formula: the m-ary amplitudes moved in the last bits
(theta of mary(27) by 1.4e-15 relative; its error against a 50-digit
evaluation went from 5.7e-15 to 4.3e-15).  The fbbst amplitudes kept
every bit, and so did mary(3)'s.

``simulate-quadtree-2-t1``/``-t2``, ``corr-profile-quadtree-2`` and
``corr-profile-quadtree-9`` were recorded again when the quadtree split
recursion began to draw the cell counts of a node from coordinate ranks (a
uniform rank per coordinate, then a chain of hypergeometric draws) instead
of a multinomial over sampled cell volumes: the same exact law, other
draws.  The two laws were compared first (tests/test_treesim.py: a
chi-square against the closed-form law, and a two-sample test against the
volume multinomial kept in tests/oracles.py).  The ``fixpoint-Tquad_*``
runs still sample cell volumes and kept every byte.

``fixpoint-TN_periodic-mary-27``, ``fixpoint-Tmed_periodic-fbbst-59`` and
``fixpoint-Tquad_periodic-quadtree-9`` were recorded again when the
periodic weights V^(lambda_2 - 1) stopped going through numpy's complex
exp (``fixpoint._periodic_weights``: a table-reduced phase and a Taylor
polynomial).  The draws are the same and the x slot kept every bit; the
weights moved by at most 3 ulps (tests/test_fixpoint.py checks them
against ``np.exp`` and a 40-digit mpmath exp), so the w moments moved in
their last digits, and after 30 generations the periodic pools agree with
the ``np.exp`` route to within 1e-12 of SD(w) (3e-15 measured).

``roots-mary-27``, ``roots-fbbst-59``, ``constants-mary-27``,
``constants-fbbst-59``, ``fixpoint-TN_periodic-mary-27``,
``fixpoint-Tmed_periodic-fbbst-59``, ``corr-profile-mary-27`` and
``corr-profile-fbbst-59`` were recorded again when the spectrum solve began
to start Aberth from per-root branch solutions, stop at rounding noise and
polish lambda_2 to the correctly rounded root.  lambda_2 moved by 19 / 3
ulps (real / imaginary part) at mary(27) and by 69 / 1 ulps at fbbst(59),
toward the 192-bit root; the other roots moved in their last bits.  theta
moved by 3.9e-15 / 6.6e-14 relative and the fixed-point weights
V^(lambda_2 - 1) in their last bits.  The predicted rho moved with the
variance factor, whose s(x) = 1 - m E[V^x] became a finite product (c0 of
fbbst(59) by 2.0e-11 relative, its former error against a 50-digit
evaluation, now 5.8e-13), and with the covariance factor, rearranged
against cancellation (by 2.5e-14 relative at fbbst(59)).

``roots-mary-27`` and ``roots-fbbst-59`` were recorded again when each
root began to be polished on its own branch (Newton in the ratio form)
and mirrored, in place of Aberth-Ehrlich sweeps and a snapping pass.
lambda_2 kept every bit.  4 of the 26 roots of mary(27) moved, by at most
9.0e-17 relative, and 11 of the 60 of fbbst(59), by at most 1.3e-15; their
worst error against the 192-bit roots went from 9.9e-17 to 7.9e-17 and
from 1.3e-15 to 1.8e-16.  certified_error kept every bit at mary(27) and
moved by 1.3e-15 relative at fbbst(59).  ``constants-mary-27``, whose
c2 - phi c1 sums over every root, and every other digest kept their bytes.

``fixpoint-Tquad_periodic-quadtree-9`` was recorded again when quadtrees
joined the indicial equation: lambda_2 = 2 e^(2 pi i / 9) now comes from the
certified spectrum of z^9 - 2^9, the correctly rounded root, in place of
libm's cos and sin at the rounded angle 2 pi / 9.  Its imaginary part moved
by one ulp (1.2855752193730785 to 1.2855752193730787), the real part kept
its bits.  The x slot kept every bit; the w moments moved by at most
2.9e-14 relative (mean_im_w).

``roots-mary-27`` and ``roots-fbbst-59`` were recorded again when
``roots`` lost its ``--precision`` flag: the echoed config lost
``"precision":64``, and every other byte stayed the same.

``roots-mary-27`` and ``roots-fbbst-59`` were recorded again when the
inclusion radii moved from the log form to the ratio form with a derived
rounding charge: certified_error went from 3.4464787043294554e-13 to
5.6299973542588043e-14 (mary(27)) and from 1.1802272988373077e-11 to
1.254684796923575e-12 (fbbst(59)); every other byte stayed the same.

``CSV_CASES`` and the ``--trace-out`` / ``--pool-out`` files of
``FIXPOINT_CSV`` were recorded before every CSV body moved onto the one
writer of ``logtrees.cli``; the move changed none of their bytes.  The
quadtree float means take no ``np.convolve``, so, like the spectra and
the periodic factors, they are the same under every numpy dispatch; the
fixpoint files are not (np.log), and their test ids name ``fixpoint``.
"""
import contextlib
import hashlib
import io

import pytest

from logtrees import treesim
from logtrees.cli import main


def _simulate(family, param, threads):
    return ["simulate", "--family", family, "--param", str(param), "--n", "1500",
            "--reps", "2048", "--seed", "7", "--threads", str(threads)]


def _fixpoint(kind, family, param):
    return ["fixpoint", "--map", kind, "--family", family, "--param", str(param),
            "--pool", "1000", "--gens", "6", "--seed", "5"]


def _profile(family, param, grid):
    return ["corr-profile", "--family", family, "--param", str(param), "--grid", grid,
            "--reps", "256", "--seed", "3"]


CASES = {
    **{f"simulate-{f}-{p}-t{th}": _simulate(f, p, th)
       for f, p in (("mary", 3), ("fbbst", 1), ("quadtree", 2)) for th in (1, 2)},
    **{f"fixpoint-{kind}-{f}-{p}": _fixpoint(kind, f, p) for kind, f, p in (
        ("uniK", "mary", 3), ("TNprime_normal", "mary", 3), ("TN_periodic", "mary", 27),
        ("Tquad_normal", "quadtree", 2), ("Tquad_periodic", "quadtree", 9),
        ("Tmed_normal", "fbbst", 1), ("Tmed_periodic", "fbbst", 59))},
    **{f"constants-{f}-{p}": ["constants", "--family", f, "--param", str(p)]
       for f, p in (("mary", 3), ("mary", 27), ("fbbst", 1), ("fbbst", 59),
                    ("quadtree", 2), ("quadtree", 9))},
    **{f"roots-{f}-{p}": ["roots", "--family", f, "--param", str(p)]
       for f, p in (("mary", 27), ("fbbst", 59))},
    **{f"corr-profile-{f}-{p}": _profile(f, p, grid) for f, p, grid in (
        ("mary", 3, "200,400"), ("mary", 27, "300,600"), ("fbbst", 1, "200,400"),
        ("fbbst", 59, "300,600"), ("quadtree", 2, "200,400"), ("quadtree", 9, "300"))},
}

DIGESTS = {
    "simulate-mary-3-t1": "d9e1ef721b62611fd276ccaa1f0753ac84b97a0c1ebc759f2612b9aab7e7229e",
    "simulate-mary-3-t2": "d9e1ef721b62611fd276ccaa1f0753ac84b97a0c1ebc759f2612b9aab7e7229e",
    "simulate-fbbst-1-t1": "15b46e64c3c40e2f5ae914f104ed01f91ec4be1628f28183ea69e0dcd9dda644",
    "simulate-fbbst-1-t2": "15b46e64c3c40e2f5ae914f104ed01f91ec4be1628f28183ea69e0dcd9dda644",
    "simulate-quadtree-2-t1": "2437923a518a860ea715d0ea93d74ce4c9ed1fc6f0983ea9f8218d4f76486ca5",
    "simulate-quadtree-2-t2": "2437923a518a860ea715d0ea93d74ce4c9ed1fc6f0983ea9f8218d4f76486ca5",
    "fixpoint-uniK-mary-3": "accca1b888e10d39199da55b4b16883a018a0cced62cdc96fb398ef3d6a87349",
    "fixpoint-TNprime_normal-mary-3":
        "68922a9132749c544f748c6347d23a94934d29dcafb3b7a4b33a330ac9ebfa5f",
    "fixpoint-TN_periodic-mary-27":
        "a89a960c5fd4103c5e0536708d09a0333b7dc36afc5ea6ca242f247b8dfa4c9c",
    "fixpoint-Tquad_normal-quadtree-2":
        "e470328a1e96bea46489a1db683a9a969625e9b16af702cbc14ff57a6d2f11d8",
    "fixpoint-Tquad_periodic-quadtree-9":
        "86840f1dda0830fd0aafdd13344c14f99511c59f7011d0b809ede80dd876e14d",
    "fixpoint-Tmed_normal-fbbst-1":
        "57d524f1d9ce4c313b0aef9f9a2b8843f75d757988f515abe98999b916b003be",
    "fixpoint-Tmed_periodic-fbbst-59":
        "19bc5996edd72b426572e27a5af98c762011223ab92a5c9f313b1d64baea1c36",
    "constants-mary-3": "99d5222a1e7e0a5cdeee180f9837a10de6b18ac7548374db439988b976e2ed82",
    "constants-mary-27": "cf398695d5c5f9f3046c8af08696575b66d140220347481f1d8b6c43adae7e68",
    "constants-fbbst-1": "1ef1d5fc891378ac07afe6bc3f0764f9a81a26c109ab21c8f9df4c933dcb6f8e",
    "constants-fbbst-59": "002c8ef85e3b5860b207551b9d91073ebd0361728dc13dab09a641ffbd29d8f3",
    "constants-quadtree-2": "166a2c133ddac8488068db9b3ea4e82b90c6749998ac6990da972867e07f1ce1",
    "constants-quadtree-9": "a6e8423cd1e54f28a60bebf724ff666a07b12976e1cd7c6a27c55dbc5721c895",
    "roots-mary-27": "e86b95257f4117891db4535686e5c357afa1b3b7ce442ec8717e3e1eab2436cc",
    "roots-fbbst-59": "920f20df578ae7209d68c8d76ddb4ab8f6f7a2bebee99399331b8432e9a68bd8",
    "corr-profile-mary-3": "8d2b6a7f29065379824d850b45c50c6c8b0f6a6133cda92b04d2881b7beb1784",
    "corr-profile-mary-27": "8e86670fb63fb61e3da067e0119cd03ddac75aec854d828e0d28be5bc371a26b",
    "corr-profile-fbbst-1": "3e6d7b67065173923d500ffc5bf501fb08f8b7917ed5278a9325a14573770d56",
    "corr-profile-fbbst-59": "f9b0801f486fc7b8730ee1245419744826f0abff0902211e6c792dc6f8af81e3",
    "corr-profile-quadtree-2": "7b408c5044d61cb88308432f4c337a859e3ba5b41a0a81538d470ed35754aba8",
    "corr-profile-quadtree-9": "fd2c10b0c13e3a478dd26c31a84871eb96330cde300040ad30621be98b85a894",
}


@pytest.mark.parametrize("key", sorted(CASES))
def test_stdout_matches_golden_digest(key):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(CASES[key])
    assert code == 0, err.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[key]


# stdout of the runs above when every size from the split threshold on is
# split, as the recursion did before it had tables
SPLIT_TO_THRESHOLD = {
    "simulate-mary-3-t1": "e76c1f6552034def29cb1e3ac98938e31a2c8948bb3b9fd1f6dad122bfc74453",
    "simulate-mary-3-t2": "e76c1f6552034def29cb1e3ac98938e31a2c8948bb3b9fd1f6dad122bfc74453",
    "simulate-fbbst-1-t1": "cc9042a2f09d645c7470e95f406c65ea371b46dd307d8b222db8c3b98e26aef5",
    "simulate-fbbst-1-t2": "cc9042a2f09d645c7470e95f406c65ea371b46dd307d8b222db8c3b98e26aef5",
}


@pytest.mark.parametrize("key", sorted(SPLIT_TO_THRESHOLD))
def test_threshold_cutoff_reproduces_recorded_draws(key, monkeypatch):
    real = treesim.small_laws
    monkeypatch.setattr(treesim, "small_laws", lambda instance: real(instance, 0))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(CASES[key]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == SPLIT_TO_THRESHOLD[key]


CSV_CASES = {
    **{f"moments-{f}-{p}-exact": ["moments", "--family", f, "--param", str(p), "--nmax", "60"]
       for f, p in (("mary", 3), ("fbbst", 1), ("quadtree", 2))},
    "moments-quadtree-2-float": ["moments", "--family", "quadtree", "--param", "2",
                                 "--nmax", "3000", "--mode", "float"],
    **{f"periodic-{kind}-{p}": ["periodic", "--kind", kind, "--param", str(p)]
       for kind, p in (("Frho", 27), ("G1", 59), ("P1", 9))},
    "periodic-P2-6": ["periodic", "--kind", "P2", "--param", "6",
                      "--cplus-re", "0.5", "--cplus-im", "-0.25"],
    "table-alpha-3-40": ["table-alpha", "--from", "3", "--to", "40"],
    "table-c2-3-33": ["table-c2", "--from", "3", "--to", "33"],
}

CSV_DIGESTS = {
    "moments-mary-3-exact": "32556fc5669d43d01a19877731c0b8a39d8352f503577575817522c131b58240",
    "moments-fbbst-1-exact": "2bb4b4acfbe3f8c6e463efef3907ddc31a2fd939177d8ccfcb525462fefbcc32",
    "moments-quadtree-2-exact": "11f6aa97a7672dc9a6de0dc7e275fad503570f825d5783987ac719407133c697",
    "moments-quadtree-2-float": "0bd6ea5c7492387f1986eef499f233566a938309d67936af1100df7ba366b439",
    "periodic-Frho-27": "6a56a13e295f047e0e0a7d686f839503e8eb56f79397c8307bbc59a9bfbb76d8",
    "periodic-G1-59": "91dda34eaf2530089c9b8cd3a97e2c5107514ab6692a2a907441a89464f35672",
    "periodic-P1-9": "d5a79ffd4e89aaedb5df9afdb68e969ca5b55a152cb220d7837543971901a17c",
    "periodic-P2-6": "54e9f7b07a27f6491e1195be54c811a73b8a7cb611286313447729fe41bf1cfc",
    "table-alpha-3-40": "27de2c6f8c2f58b03fa55391ccf820241ea44588b057d46a880e3afe490fd671",
    "table-c2-3-33": "441908694e958f5b75214ba4da8eacee471d1ee33609ee9fb6ecc3d01bbfb1cf",
}


@pytest.mark.parametrize("key", sorted(CSV_CASES))
def test_csv_stdout_matches_golden_digest(key):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(CSV_CASES[key])
    assert code == 0, err.getvalue()
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CSV_DIGESTS[key]


# sha256 of the (trace, pool) files of a 1000-row, 3-generation run
FIXPOINT_CSV = {
    "uniK-mary-3": ("c22f66be1ad85dbbb6033c496d18e0b7cd16683ee8cddf48bdac802bdb311822",
                    "8d96fc81505507853b0c6c1395aa0532b12810ba3aa9a7ff920d6139885217fe"),
    "TN_periodic-mary-27": ("17ecfd9bdb12199704b9f61e43dc2a2affae8e2f973af87c87dc48cb8371499a",
                            "4e34012291e58db6e158580ecb5853492daa7994c4b75ef7eb8720f813fa6dd3"),
    "TNprime_normal-mary-3": ("a0773cf283e6c515f1432f12e5cea95602249dec4571ef31144d5151cd38a229",
                              "1e4c299689774fa853481f14dac57815a9a5b4d45d78ac5a97fe7dab4e4ae26c"),
}


@pytest.mark.parametrize("key", sorted(FIXPOINT_CSV))
def test_fixpoint_csv_files_match_golden_digest(key, tmp_path):
    kind, family, param = key.split("-")
    trace, pool = tmp_path / "trace.csv", tmp_path / "pool.csv"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["fixpoint", "--map", kind, "--family", family, "--param", param,
                     "--pool", "1000", "--gens", "3", "--seed", "5",
                     "--trace-out", str(trace), "--pool-out", str(pool)]) == 0
    assert tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in (trace, pool)) == FIXPOINT_CSV[key]
