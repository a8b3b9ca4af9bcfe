"""The committed output set (tests/output_set.py) holds its digests.

The sweep tables were digested before the engine replayed lone VC
packets, and they read the same under Python 3.10, 3.11, 3.12 and 3.13.
The low-rate vc and hybrid points carry lone packets, and the frozen
copy cannot check a hybrid table (its hybrid sweep installs no
circuits), so these pins reach where the differential tests cannot.  A
change that means to alter a table updates the digests here and says
why.
"""

import os
import subprocess
from pathlib import Path

from output_set import CALLS, digests
from python310 import python_3_10

# one per call of output_set.CALLS, in order: the 18 rate sweeps, then the
# two subnet-count sweeps
DIGESTS = (
    "a77a86d09a089662479358dc8ba101d7e658855e32525d84b55e9598e181eed1",
    "d56fcce0b2a7c270b3754a30eef3a606175da3b68f05aaa20abe971a29c52c6c",
    "dad13d09864d7434e308db09b07c2cec0dbf5bbd6f50e2c27f48d6725786f09c",
    "a77a86d09a089662479358dc8ba101d7e658855e32525d84b55e9598e181eed1",
    "d56fcce0b2a7c270b3754a30eef3a606175da3b68f05aaa20abe971a29c52c6c",
    "dad13d09864d7434e308db09b07c2cec0dbf5bbd6f50e2c27f48d6725786f09c",
    "b0f0f6a04106d8c7280916e53409bc6263e6ad9612702e2a3576d607315b501e",
    "6264e9c317b18321baea5a3fb6b9308637c517e34989c7e5a22863a01815eb5d",
    "309e9780e28571e66957cb575dff50561862427b99403523003782a07c0b85aa",
    "b0f0f6a04106d8c7280916e53409bc6263e6ad9612702e2a3576d607315b501e",
    "6264e9c317b18321baea5a3fb6b9308637c517e34989c7e5a22863a01815eb5d",
    "309e9780e28571e66957cb575dff50561862427b99403523003782a07c0b85aa",
    "e88f52f7381729d6e7bf2aa45f02b7e4396a422460ee0858f7f59ef750c8c178",
    "78010f4de32d4f824320b910f199fca63e465822d72ffd8b202aad09c5c29c90",
    "41a665d6d20f7d1241d16e48942719d7cbffef502a71a20aed88294008b9a86e",
    "cdded53e0e4ce0833af3e49bc2f74a504989a85d78e01dea99a42e11324b5f92",
    "935321f934900843deb08684393421f1189f7e9367f97ed08a8e9097b8f43435",
    "87b46fc237432dee09e423712c93a8928a246d60c1a007d4b59fb316ed14ce68",
    "af39dad9344710e8d3e9af1ac727ea105b841e8a781430db4cc2d2df5b5a0a6b",
    "25dc8573913142f18eba1b3da7f6ca2ea8746d82ad44ad8803f4685cae892f7c",
)
TOTAL = "809b90c1a358e49a9b6a356bc83612d2885efbeff071acc0de21cfc6def0b05a"


def test_output_set_matches_its_committed_digests():
    each, total = digests()
    assert len(CALLS) == len(DIGESTS) == 20
    assert dict(zip(each, DIGESTS)) == each
    assert total == TOTAL


def test_output_set_reads_the_same_under_python_3_10():
    # the oldest supported interpreter prints the same digests; the script
    # puts the package's src/ on its own path
    exe, env = python_3_10(os.environ)
    done = subprocess.run([exe, "-B", str(Path(__file__).with_name("output_set.py"))],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    *each, total = [line.split()[:2] for line in done.stdout.splitlines()]
    assert [digest for digest, _ in each] == list(DIGESTS)
    assert total == [TOTAL, "all"]
