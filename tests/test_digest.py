"""The CLI's output, byte for byte: seven groups of tools/cli_digest.py, run
in process, against their recorded SHA-256 digests.  A change that moves
any output of these groups fails here; one that moves it on purpose
records the new digest with the reason."""

import importlib.util
from pathlib import Path

# full digests of `python tools/cli_digest.py`; errors-and-text and large-n
# are left to the manual run (their outputs hold failure texts and the
# largest solves)
DIGESTS = {
    "verify": "d45dfcdc2f731b4b23698b384eacdef1d2125c4f84deb979ebdd7fb8f82fbbd5",
    "roots": "b82df16d97bd39a10b4bf6ab1fb5b6b2c4c5f03b7283864ba76802a9df99c3f4",
    "zeta-cert": "05904778bcafe86f48b254962f2e3715195e54579271f88d422bc3ec701e8b9a",
    "roots-of": "e3b757e87d6e848405b0b1516bb6764f3753f14d09a730fd06725a3be33ad6cb",
    "dft": "4d641217b087944a0408f47c21b142bb0e1721a63244b9152325e753d32fed61",
    "low-precision": "11ec9a7692a00de6b715d0cbc24a18c1151417461a4ad75405b10be91ebf7b5a",
    "zeta-precisions": "ad068a2a0f21a112b8d521e3a2fa22b480a54835d7f1755ae03f0c642c540fd2",
}


def _cli_digest():
    path = Path(__file__).resolve().parent.parent / "tools" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_is_byte_identical():
    tool = _cli_digest()
    got = {name: tool.sha256(outputs)
           for name, outputs in tool.run_groups(DIGESTS)}
    assert got == DIGESTS
