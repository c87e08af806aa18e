"""Golden CLI bytes: exit code and stdout of a fixed matrix of invocations.

Each case is pinned by the SHA-256 of (argv, exit code, stdout, stderr),
where stderr counts only when it is the package's own ``error: ...`` line;
argparse's usage and help text vary with the Python version, so for those
cases only the exit code and stdout are pinned.  A change that alters any
of these bytes on purpose records why in CHANGES.md and updates the digest.

To print the digests of the current code:

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import magicfiber
from magicfiber.cli import main

FORMATTED = [
    "class 3 1 -2",
    "class 3 1 -2 --tol 1e-6 --max-bits 256",
    "class 1 0 0",  # out of the cone: partial record, then exit 2
    "class 6 2 -4",  # in the cone, not primitive
    "class 0 0 0",
    "class 1 0 0 --norm-only",
    "class 0 0 0 --norm-only",
    "family -g 2 --p-max 4",
    "bounds -g 2 -n 3..10",
    "bounds -g 7 -n 5..6",  # no witness rows
    "bounds -g 2 -n 20..24 --tol 0.1",  # loose tol: brackets of neighbouring p overlap
    "star --max 12",
    "star --max 60",  # witnesses of 2g+1 with three primes, e.g. 105 at g = 52
    "asymp bracket --m-range 2..12",
    "asymp ratio --points 10,20 --tol 1e-8",
    "verify roots identity",
    "verify rootcount",
    "verify topology star",
]

UNFORMATTED = [
    "--version",
    "",
    "frobnicate",
    "star --tol 1e-3",
    "class 3 1 -2 --tol 1/0",
    "class 3 1 -2 --tol 1e-50 --max-bits 128",
    "bounds -g 2 -n 9..3",
    "bounds -g 1 -n 3..5",
    "asymp ratio -q 1/0 --points 10",
    "verify nonsense",
]

CASES = [f"{c} --format {fmt}" for c in FORMATTED for fmt in ("plain", "csv", "json")]
CASES += UNFORMATTED

GOLDEN = {
    "class 3 1 -2 --format plain": "624d4444359acd2acd692627f4f1ed42e665e171b031148f68f0f48c9ef70ff9",
    "class 3 1 -2 --format csv": "80a90cf5c329981afc73b16243ccc91d01386ce1620309c56eb2798fbadc7e30",
    "class 3 1 -2 --format json": "299506995df129890c5151c8e5e937b3d6635cc0ee4e1edf77fbe05237616001",
    "class 3 1 -2 --tol 1e-6 --max-bits 256 --format plain": "f3ce681e2ffd231479527054a354c79d5d29803f8133e07fc8b27445a7d14bf7",
    "class 3 1 -2 --tol 1e-6 --max-bits 256 --format csv": "5fc9548d0d69320eb5d42ab432e746f06382fa6a6c9572db29bd197076286cf8",
    "class 3 1 -2 --tol 1e-6 --max-bits 256 --format json": "a4af4d0c26bddcdcb37b60d16865419770a3617ee0b2ca443a6b9ff3cd608f56",
    "class 1 0 0 --format plain": "e2fb4e5631d13381c4b6a455b59e62362ce55e18506bd207b18abcccbb13a0bd",
    "class 1 0 0 --format csv": "776fdbdd1026a492fb596bee78ab9adba9936a028b9fcff2ddd3e2c704ec9f41",
    "class 1 0 0 --format json": "fd82ed9803582f2c807e2e371df0197dddb69c827285dcba3f04d48526bb5f1f",
    "class 6 2 -4 --format plain": "c53ea8776f8dd53341475607117da37eee42de8d2177cbe3a2d6cd003ecf44fb",
    "class 6 2 -4 --format csv": "65c00c86ac242b4a241783435ec9cf38a848881bd2a74d1b71ebe3b74e71b5e4",
    "class 6 2 -4 --format json": "2fd6fdf90dd3274214109efc299b2418ad5de31bd47e461e90c0dcf1d9f41d65",
    "class 0 0 0 --format plain": "3ff496bf40954d295d5bc0cd2dea8a0d63672d1e4c2abeedc89928a9d67302ba",
    "class 0 0 0 --format csv": "d7b9877b0b91cfabe7dd59d65caa50320e3db9a51d40ff7b8f5652aa149c0dbd",
    "class 0 0 0 --format json": "fa264e3f01ad92f9d0dcbb19027f54e561bdef5be82fe8c03b4afcd13529eb9b",
    "class 1 0 0 --norm-only --format plain": "609db732a712a3742855630d9dc958e6ddde6d1fad03c3bb2ce9179eb3cf17e0",
    "class 1 0 0 --norm-only --format csv": "924efd27122f0ebaae09279f8b1dfac33907ba228683fa2d3e5a1d5b6f63f450",
    "class 1 0 0 --norm-only --format json": "19d57ce2edff1b3db66c643b39940c972096a4f31c3034727ff8d2d0ac028bae",
    "class 0 0 0 --norm-only --format plain": "5d01198412976bc4942b536afda8bd5ac6604201ede7b5e2ab5e6fa6a895f618",
    "class 0 0 0 --norm-only --format csv": "6e6fe3b332767e137553229ac3898480132a012f0f919c873f7e7a11944c35e5",
    "class 0 0 0 --norm-only --format json": "e5694b6b8898bc85216aafd07c5a75241ac3c47f5cb1ab8ebc82888baa000fd8",
    "family -g 2 --p-max 4 --format plain": "6ace771e12590746a221f30c37ca4a87160dc24f62ca64b751dbea762be80a04",
    "family -g 2 --p-max 4 --format csv": "d44ad4e5ebc8c7a473c2e97249c9905e607fb21f8ff175cc1862d8689c6ed3e8",
    "family -g 2 --p-max 4 --format json": "24ddba15517ca9b78643eaeed2263eb5c1db82bfbd361375666b3bd81619f8bf",
    "bounds -g 2 -n 3..10 --format plain": "2e84c72539ea60b06d842e352bc95e4abdc0470ff6d49a83ecb6f4d9816720d4",
    "bounds -g 2 -n 3..10 --format csv": "eb1c1d8ed8ce7bacd8538b5aa68a3d8e8313ddc982f4ce006cb68e0848056ce6",
    "bounds -g 2 -n 3..10 --format json": "93754bd1c51a7634a5dd8048479faf2e20554ecb38b19f30d0718fa01366f523",
    "bounds -g 7 -n 5..6 --format plain": "e6dc0c84ccc7d6889d1038e25fdb782f88ddacdbd977382154682cd13f9dd7ad",
    "bounds -g 7 -n 5..6 --format csv": "5bb21b2f242ba3130b2510ac6bb9b26277f2580cadd5b26b0449ee28351b4302",
    "bounds -g 7 -n 5..6 --format json": "d8928a1f1eece559c52f2bdf788da709e6f0fd1a3bf06a65b6e69941432d9873",
    "bounds -g 2 -n 20..24 --tol 0.1 --format plain": "18a320ce45f6afc3ecd84b6736bb2ce34d5336bdf427b81d74c7e5b58123a80b",
    "bounds -g 2 -n 20..24 --tol 0.1 --format csv": "c97916897dc32824137cbf90b29e5bffb61f3f0e5b551a60941cffcbef62645e",
    "bounds -g 2 -n 20..24 --tol 0.1 --format json": "512da1d773a205e28c1398c64d7f8d6524d0522e7f0a59c2c18b5402087176e3",
    "star --max 12 --format plain": "c620555aaa730f109d67b84d5f07a3d6e0eee42110c9ef97d42098be2560dfa9",
    "star --max 12 --format csv": "277bffd2c6b39f3dff6cb4f5b03c483dc6045dc034bc8858405493c3f4631fcf",
    "star --max 12 --format json": "4f36f2e7a3ac8369c39f3ec50996628a3a91973cf4db5c9bbd76994a30377ef0",
    "star --max 60 --format plain": "1dbf8abe2fbedca6d47436b53e79f3e2d24827a8dce2f8fc6d9932482871d59e",
    "star --max 60 --format csv": "9a22a0821711bcefcb5fd60ee6cf8e0d6cc68beb076d412edd7bab7546e22940",
    "star --max 60 --format json": "20352cff09f6654f4a7ac9261b6c1398d7c71af520a8320f17676db21f6e6922",
    "asymp bracket --m-range 2..12 --format plain": "7d2653a94236b5550f208566e91f575688cdcc9e32858abeadf6c2169a185bfd",
    "asymp bracket --m-range 2..12 --format csv": "aa3523c87b1717f742e56ab29a23fbedd653be45d29222ba7f54d515e21dd9cc",
    "asymp bracket --m-range 2..12 --format json": "373a6292db471bd01afcb00ea3f525517445925e595b8d277ed6a2a7b2f2896e",
    "asymp ratio --points 10,20 --tol 1e-8 --format plain": "7db873afa08ea6b318abb55967126dd471f3c6972188f75c9cf7963333eb5cf3",
    "asymp ratio --points 10,20 --tol 1e-8 --format csv": "dfbcdd8d5c3c1e101ff777b5d5b08be4fac9facd0dfdbe4500caa6108aae940a",
    "asymp ratio --points 10,20 --tol 1e-8 --format json": "ef767f26f9625b2d8afa7bad66f9329bda9e3693c662cc6f5008a7a76a7fdc52",
    "verify roots identity --format plain": "e1d80600b6210c2acc5d6c78ab379e5225a077171defc507acb1805787bc4ec9",
    "verify roots identity --format csv": "f3f0d2b770df7aed64568611b0196d7b00ad7b18e7616746303d52fc46c308d2",
    "verify roots identity --format json": "6baaadd28e11c6fdb2ba965c7197e0d15d39f1bc2013f934b5e93d774b44e4d8",
    "verify rootcount --format plain": "81e2d98f826d593c0ac533557a6fa738a6f5df91ddbcd00075a24551aff45efe",
    "verify rootcount --format csv": "64d1278986ef69faa3a5ea06de9a8052b51070f77878f8b3630ac36be91bf088",
    "verify rootcount --format json": "d3f3cabe9a043d1efd1f7dbc8bc72031cb9243738fa95ff3557c6d1d62d07c30",
    "verify topology star --format plain": "9887edf661601e1f9ca0c6eb231e8dbace02fb0fc5aa345bcf741ec88ef7ffed",
    "verify topology star --format csv": "4a5488730b5cc8b6d80fb320006f730b4f412483380a463d029b0056d3f2662c",
    "verify topology star --format json": "20ebc6bb94e79a4fbe92b7db9e123eb2700156fa690d3a8443ddba0d2063b0f0",
    "--version": "53b8cf64c9cb72db10b7f889c0003e201794e32496c49063c4e08ebc3140ba3d",
    "": "8face5b294be4fad6a01b86613e3bbe72afe03f4ee0cc10861e6bd179f334f4d",
    "frobnicate": "5227e734f3f672efc0af93df19424ad256bd92cb3fc45a623e9f7fc3dd5136f3",
    "star --tol 1e-3": "737dae8b2bb6a3009e0f48b390aaadbf313d87890abe99e0d84eb59d461d61c3",
    "class 3 1 -2 --tol 1/0": "6befda11eaea19d62815944f5c41a6b809b866f2956afe36ad52174931a72d80",
    "class 3 1 -2 --tol 1e-50 --max-bits 128": "f03a363eb3ce92e4f16535754d1fbc3b55e544048a082cc2076d3bac64d0190a",
    "bounds -g 2 -n 9..3": "4a5e89a2b26fb557475b01aec5c73a1729ac72f43a590e723ba41aa6290dd109",
    "bounds -g 1 -n 3..5": "624b5f32c4455a93c315d6f471d58b62c7b8ade596b0ba10e5cc29127e0a32cd",
    "asymp ratio -q 1/0 --points 10": "91e38f0b40cd7a4600cf6e5569b473e2eaa9f91f30a91414d1343d828950d229",
    "verify nonsense": "5eff3f3f54e3acaee900ca5f89706414f26d06554c70c53f56df7b3b99e3f72a",
}


def digest(command: str) -> str:
    argv = command.split()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    stderr = err.getvalue()
    pinned = stderr if stderr.startswith("error: ") else None
    blob = json.dumps([argv, code, out.getvalue(), pinned])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("command", CASES)
def test_cli_bytes(command):
    assert digest(command) == GOLDEN[command]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("command", FORMATTED + UNFORMATTED)
def test_no_traceback_from_a_child(command):
    # in a child, so that an exception escaping main or the interpreter's
    # final flush would reach stderr
    env = {**os.environ, "PYTHONPATH": str(Path(magicfiber.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "magicfiber", *command.split()],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert "Traceback" not in proc.stderr


if __name__ == "__main__":
    for command in CASES:
        print(f'    "{command}": "{digest(command)}",')
