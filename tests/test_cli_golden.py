"""The CLI's outputs on a fixed call matrix, pinned by SHA-256 digests.

Each call runs through cli.main; its exit code, stdout and stderr are
hashed after the timing values are stripped, since those change from run
to run.  A change meant to keep every output the same keeps these digests.
A change that alters an output on purpose re-pins its digest here and
records the old and the new output in CHANGES.md.
"""

import contextlib
import hashlib
import io
import re
from functools import lru_cache

import pytest

from resgrass import cli
from resgrass.cli import main

from cases import braid_rows

# r1 inputs besides the fixtures; n1 to noflats have no dependent triple, and
# one40 and two40 have one triple and two disjoint triples among 40 hyperplanes
INPUTS = {
    "A4": "matrix\n" + "\n".join(" ".join(map(str, row)) for row in braid_rows(4)) + "\n",
    "A5": "matrix\n" + "\n".join(" ".join(map(str, row)) for row in braid_rows(5)) + "\n",
    "n1": "matrix\n1\n",
    "n2": "matrix\n1 0\n0 1\n",
    "generic4": "matrix\n1 0 0 1\n0 1 0 1\n0 0 1 1\n",  # generic over every field
    "noflats": "flats n=4\n",
    "one40": "flats n=40\n5,21,38\n",
    "two40": "flats n=40\n0,19,39\n7,12,30\n",
}
# the primes r1 runs at on each input, by default 31991, 3 and 2
R1_PRIMES = {"one40": (31991, 3), "two40": (31991, 3)}


def _calls():
    """(id, argv) pairs; an argument "@name" stands for the path of INPUTS[name]."""
    calls = []
    for src in ("A3", "Hessian", *INPUTS):
        where = ("--input", f"@{src}") if src in INPUTS else ("--fixture", src)
        for p in R1_PRIMES.get(src, (31991, 3, 2)):
            for fmt in ((), ("--json",)):
                calls.append((f"r1-{src}-p{p}{'-json' * bool(fmt)}",
                              ["r1", *where, "--p", str(p), *fmt]))
    # --stats pins the census and engine counters; A3 is read at 31991, so p = 3 crosses primes
    for src, p in (("A3", 31991), ("A3", 3), ("A5", 31991), ("Hessian", 31991), ("Hessian", 3)):
        where = ("--input", f"@{src}") if src in INPUTS else ("--fixture", src)
        argv = ["r1", *where, "--p", str(p), "--json", "--stats"]
        calls.append((f"r1-{src}-p{p}-json-stats", argv))
    for src, q in (("A3", 5), ("A3", 7), ("A4", 3)):
        where = ("--input", f"@{src}") if src in INPUTS else ("--fixture", src)
        for fmt in ((), ("--json",)):
            calls.append((f"oracle-{src}-q{q}{'-json' * bool(fmt)}",
                          ["oracle", *where, "--q", str(q), *fmt]))
    calls.append(("oracle-Hessian-q2-refused", ["oracle", "--fixture", "Hessian", "--q", "2"]))
    for k in (1, 2, 3):
        for coords in ("0,1,0,0,-1,0", "1,2,3,4,5,6"):
            for fmt in ((), ("--json",)):
                calls.append((f"check-point-A3-k{k}-{coords}{'-json' * bool(fmt)}",
                              ["check-point", "--fixture", "A3", "--k", str(k), *fmt, coords]))
    return calls


CALLS = _calls()


def strip_timings(text: str) -> str:
    """text with every timing value replaced by '#', in r1's text and JSON forms and its stats."""
    text = re.sub(r"^timings ms: .*$", lambda m: re.sub(r"\d+\.\d+", "#", m.group()),
                  text, flags=re.M)
    text = re.sub(r'"stats": .*$', lambda m: re.sub(r'("\w+_s": )[^,}]+', r"\1#", m.group()),
                  text, flags=re.M)
    return re.sub(r'"timings_ms": \{[^}]*\}', lambda m: re.sub(r"\d+\.\d+", "#", m.group()),
                  text)


def run_call(argv, folder):
    """(exit code, stdout, stderr) of one cli.main call, timings stripped."""
    argv = [str(folder / f"{a[1:]}.txt") if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, strip_timings(out.getvalue()), strip_timings(err.getvalue())


def digest(result) -> str:
    code, out, err = result
    return hashlib.sha256(f"{code}\n{out}\0{err}".encode()).hexdigest()


def write_inputs(folder):
    for name, text in INPUTS.items():
        (folder / f"{name}.txt").write_text(text)
    return folder


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def one_r1_run_per_input():
    """cli's r1_hilbert memoized, so the text and JSON calls on one input and prime share a run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "r1_hilbert", lru_cache(maxsize=None)(cli.r1_hilbert))
        yield


DIGESTS = {
    "r1-A3-p31991": "ef2f1fc4ef40abd31bf5153585f2f257baab1fb4c50e45baee3ff0ee99202961",
    "r1-A3-p31991-json": "993f2e711ad516b14ef40f967683ed3207f2646a6c1dc97793ec7c4ffe840781",
    "r1-A3-p3": "ef2f1fc4ef40abd31bf5153585f2f257baab1fb4c50e45baee3ff0ee99202961",
    "r1-A3-p3-json": "682fe654f17c251409c2f38260539dffdee033c121d8cd683c198ea9b6b22a32",
    "r1-A3-p2": "ef2f1fc4ef40abd31bf5153585f2f257baab1fb4c50e45baee3ff0ee99202961",
    "r1-A3-p2-json": "3bfeb77978e36b7121107b126728734752bfa484237ce630560c0f9efb0fec74",
    "r1-Hessian-p31991": "451cf8383a5cfd2f39e1663dc29803b8ad471117223df4a29912172a6ecb701a",
    "r1-Hessian-p31991-json": "1a34a9fb1d7750246a7c5d4ef146646c9bb81a2b741e5944646db0b71a71af9b",
    "r1-Hessian-p3": "9c5e7d37d539bc0699a34d227e0e3949c9a25ec5f90b61ed709bb137f114098e",
    "r1-Hessian-p3-json": "3848f265fe2e82bce13e42cf5911bf5e0a4f6224e64269742d918bf9d84fdcfb",
    "r1-Hessian-p2": "451cf8383a5cfd2f39e1663dc29803b8ad471117223df4a29912172a6ecb701a",
    "r1-Hessian-p2-json": "fe6b7f5a48c9febb99b9985a56cc36dcd1498509f565a54dbd430671e97751af",
    "r1-A4-p31991": "adf43d0a959f5d5a94dd47b2e4933609835aca19029566c581df21b5cae34c97",
    "r1-A4-p31991-json": "d344e279193702090d4e740edb41159caf06fd3996cf362e6d83ba0cfd59a27d",
    "r1-A4-p3": "adf43d0a959f5d5a94dd47b2e4933609835aca19029566c581df21b5cae34c97",
    "r1-A4-p3-json": "0eb3173c0dccc8210d383c58242deb5426fa24b3f63856c357dcec94a1a6a169",
    "r1-A4-p2": "adf43d0a959f5d5a94dd47b2e4933609835aca19029566c581df21b5cae34c97",
    "r1-A4-p2-json": "c7a3434e9a5d0994f05d95fb37b116c29bb3285090b53d2f27ed76e4bb4cfc28",
    "r1-A5-p31991": "f056a198ce8079fb4eb5d5856621342c45cb742c1988082d02dddac39e48c9e2",
    "r1-A5-p31991-json": "f3618e234fdcda243ac55e6295019565e50ce928d581963ad4c1fbe8363f3bb7",
    "r1-A5-p3": "f056a198ce8079fb4eb5d5856621342c45cb742c1988082d02dddac39e48c9e2",
    "r1-A5-p3-json": "0ea98d16ce14d98315f14b64213301f6fbab4bc084de15ae09657d75d787c1bc",
    "r1-A5-p2": "f056a198ce8079fb4eb5d5856621342c45cb742c1988082d02dddac39e48c9e2",
    "r1-A5-p2-json": "71579ed1a187dba18b9c3db96b40bfbfbe201dd4af99fb59ae94a94c94b4e485",
    "r1-n1-p31991": "3d64b97b2b05c7ff9ee8363d29bd797fd1a4af68c373e3232ab2b2ea6f1df701",
    "r1-n1-p31991-json": "3e88431d938e852de7235a20a0260379e78ac3d602621d4ca454aa7301812609",
    "r1-n1-p3": "3d64b97b2b05c7ff9ee8363d29bd797fd1a4af68c373e3232ab2b2ea6f1df701",
    "r1-n1-p3-json": "062bdae1b676524c22478de5e1ace03eb7f84445506650fa503d926dc99fabd2",
    "r1-n1-p2": "3d64b97b2b05c7ff9ee8363d29bd797fd1a4af68c373e3232ab2b2ea6f1df701",
    "r1-n1-p2-json": "958c9d0fb8e8fcafd47810f1407e55b7bcf70abc79d7e39e602294eb05f2b9ef",
    "r1-n2-p31991": "a28a00bbdc74944ce1e9d4faec21593c7d2764dd7508d0de5d034040fec93d9f",
    "r1-n2-p31991-json": "8622e89cb62d5e4936b8dd5c21aa60e8b7142bbb2383619856a73b4a13448ef8",
    "r1-n2-p3": "a28a00bbdc74944ce1e9d4faec21593c7d2764dd7508d0de5d034040fec93d9f",
    "r1-n2-p3-json": "c18e689f2e90cfb17d4b15cef09e9c44ac8a4ac3368b5f9fb363e5ba35b16b62",
    "r1-n2-p2": "a28a00bbdc74944ce1e9d4faec21593c7d2764dd7508d0de5d034040fec93d9f",
    "r1-n2-p2-json": "57475a90f28a27dda785c25f6a8fe550d2f8fc270baaabcc58fb98078bc2b4c5",
    "r1-generic4-p31991": "d047e4ea34bf8f18bd1eab75d6f3fdbc280fcfdc746babc7c1cc5bdb0ef70dab",
    "r1-generic4-p31991-json": "c38600cf53f54b37ab3c3d95e588b5de0be52541dab9fbeba16179852c9fdaea",
    "r1-generic4-p3": "d047e4ea34bf8f18bd1eab75d6f3fdbc280fcfdc746babc7c1cc5bdb0ef70dab",
    "r1-generic4-p3-json": "b3e4646867c65745b60ad946fcba17973f66d48a118b6b6d7978ed9dafc6b896",
    "r1-generic4-p2": "d047e4ea34bf8f18bd1eab75d6f3fdbc280fcfdc746babc7c1cc5bdb0ef70dab",
    "r1-generic4-p2-json": "affe58442359d5e28d5b5f1953e7c1dbe974f2dcdfbc18f96643a6b1efee427c",
    "r1-noflats-p31991": "bfab51bf1bb84782daf0d517a95bb26de54b28494aec7ad1fdbc0a746a7f9bd9",
    "r1-noflats-p31991-json": "0cde8ef9660a3892c3856fb79112b160bc29e42a3018f2eee738151ec6d65021",
    "r1-noflats-p3": "bfab51bf1bb84782daf0d517a95bb26de54b28494aec7ad1fdbc0a746a7f9bd9",
    "r1-noflats-p3-json": "ee817861a6c220c63cee0c1400758ea2efe8411a9113c7b3ac65a70c1630dd25",
    "r1-noflats-p2": "bfab51bf1bb84782daf0d517a95bb26de54b28494aec7ad1fdbc0a746a7f9bd9",
    "r1-noflats-p2-json": "13b82db50ea6fde8ef42d6d687ce7e30b43eb54032a544c4013b03cbb8b34f83",
    "r1-one40-p31991": "31b062fe3ab87dd4cae290ea8ac35a56f2114293f29b2606a3b13213b880dde7",
    "r1-one40-p31991-json": "80fb45605d4b7f21b40669831f636b7b24c861b5730c85d1927b05058126c8fc",
    "r1-one40-p3": "31b062fe3ab87dd4cae290ea8ac35a56f2114293f29b2606a3b13213b880dde7",
    "r1-one40-p3-json": "68c7ec48d2d37e3e8fbb8673aaee68931d56505df2c2ad87ed036da3c1958aee",
    "r1-two40-p31991": "03e529e9f584e58b83228a7de9a2205c08bf6af68bd8ceb2d15a6d7f72e71383",
    "r1-two40-p31991-json": "26787e5d2320778a28dbde04633a58408906e9918ff4c704af2390e2c7bd8952",
    "r1-two40-p3": "03e529e9f584e58b83228a7de9a2205c08bf6af68bd8ceb2d15a6d7f72e71383",
    "r1-two40-p3-json": "eea8d350a3280bf56b339c8e0a3175422b837d1e9b3e6d5be9a96dba1e0f12b6",
    "r1-A3-p31991-json-stats": "c9efd48244e038ff92fc0201a33eed5b1e5507f84b0893ef37fe1cb7ad70a6d1",
    "r1-A3-p3-json-stats": "389c33faa1812e4efcfd0c511911ac2e9da57524837737513a413e93381fafba",
    "r1-A5-p31991-json-stats": "5ce47eb106c9592482a7c138e00db21c59c67b5f7fdffa34492f829d4cfc8150",
    "r1-Hessian-p31991-json-stats": "44aa3ec1618a4a9b613b24fe0b3054f66e0c6b446b75db9cca3f49b5fa6dbc51",
    "r1-Hessian-p3-json-stats": "283e04b05e07cee0ef4fc7fdaf7dc9c07f04c81030cd62d08e98128ab39e9d76",
    "oracle-A3-q5": "d4e9313942b67dd23cb097a752446bba5f6ac92053ec5ce882c38b1464e27bf8",
    "oracle-A3-q5-json": "465884e2d2f1a6a970eeedaaec8fbbb0941ec7066a1c5fed685c178d3c80dbc9",
    "oracle-A3-q7": "4463332f0ef098e6d9e8b58084346e0e70d67d6428dc3a50db3809871893d271",
    "oracle-A3-q7-json": "48e0c4d95ba9bc67e7e261cc9ce31699a6558930a3683b5c60709d3cad10fedc",
    "oracle-A4-q3": "9d5dff0ab79b75b19fe89b634bbd30a6e823b72cf1413ccafc9d0318dacec81e",
    "oracle-A4-q3-json": "41fc68ab4c9663451fadb3a5a98368aa4c1abe4ee1466b17b69f41646772ff98",
    "oracle-Hessian-q2-refused": "558eb10da4c95fba64aba912770ff49d7c09b404f1ec93fba5134d5e1aea17af",
    "check-point-A3-k1-0,1,0,0,-1,0": "8a282f3d6611bc6a1822fdb192c5c3c9b6cf05b58c7074cde00573874542bbb7",
    "check-point-A3-k1-0,1,0,0,-1,0-json": "d6085d0891d543edf962238c619eb7d6095384a636141564baeba5f70d2d181f",
    "check-point-A3-k1-1,2,3,4,5,6": "c15192385d87db19ee623800463e35a47fd14e518efd2e0791a16386e17ead0f",
    "check-point-A3-k1-1,2,3,4,5,6-json": "9435ad12922fc0475546e73bec1d3327dc68600cf3559bec03c2169283627748",
    "check-point-A3-k2-0,1,0,0,-1,0": "3885da6eb4be5d58c0332fae6be2d2378bcc5d61b73c825ecdff87638e2c4815",
    "check-point-A3-k2-0,1,0,0,-1,0-json": "3a7810f8c3e3fc8fba4457f33c0563359363d25716b7afc98a48e5f0412c5a60",
    "check-point-A3-k2-1,2,3,4,5,6": "eed2f5b4c4ef7a9f075a4d7a2717d18a6d5414f44d5498e599247416cfe47f93",
    "check-point-A3-k2-1,2,3,4,5,6-json": "09f3dc7cc0d51a01a7924112d3cb32e6b1977d862cd32997fc6f352cd2b8d4f8",
    "check-point-A3-k3-0,1,0,0,-1,0": "0ff893cc9a371c2504c0202e949cfafbe5aa6a0eebd75bda971380d86321fc6a",
    "check-point-A3-k3-0,1,0,0,-1,0-json": "438f98ef557c58095b874d8debcc6c9006584360526fad5751c2c4ea51bd554f",
    "check-point-A3-k3-1,2,3,4,5,6": "924099dacf0a5e50368d7ebe54b11cd49ae04ccc5dadbc7fab3cc494b93a9393",
    "check-point-A3-k3-1,2,3,4,5,6-json": "ed3c31adae35fe10d998da5bd456b6171bb7bed2ff5e190b4b97453e971288eb",
}


def test_the_call_matrix_is_pinned():
    assert [cid for cid, _ in CALLS] == list(DIGESTS)


@pytest.mark.parametrize("argv", [argv for _, argv in CALLS], ids=[cid for cid, _ in CALLS])
def test_output_digest(argv, inputs, one_r1_run_per_input, request):
    result = run_call(argv, inputs)
    assert digest(result) == DIGESTS[request.node.callspec.id], result


def test_timings_are_stripped_and_nothing_else():
    text = "hilbert: 5*P_0\ntimings ms: span=0.333  groebner=12.000  total=12.333\n"
    assert strip_timings(text) == "hilbert: 5*P_0\ntimings ms: span=#  groebner=#  total=#\n"
    line = '{"hilbert": "5*P_0", "n": 6, "timings_ms": {"span": 0.5, "total": 1.25}}'
    want = '{"hilbert": "5*P_0", "n": 6, "timings_ms": {"span": #, "total": #}}'
    assert strip_timings(line) == want
    line = ('{"n_os_points": 4, "stats": {"engine": {"pair_s": 1.5e-05, "created": 10, "degrees": '
            '{"2": {"rows": 15, "elim_s": 0.25}}}, "census": {"checks": 1}, "decode": {"2": 5}}}')
    want = ('{"n_os_points": 4, "stats": {"engine": {"pair_s": #, "created": 10, "degrees": '
            '{"2": {"rows": 15, "elim_s": #}}}, "census": {"checks": 1}, "decode": {"2": 5}}}')
    assert strip_timings(line) == want
