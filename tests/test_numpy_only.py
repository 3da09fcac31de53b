"""kfmc runs on numpy alone: scipy is a test dependency, not a runtime one."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# With scipy blocked, import kfmc and run every data command on a tiny
# dataset; exit non-zero if a command fails or any scipy module got loaded.
SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from kfmc.cli import main
out = sys.argv[1]
data = ["--data", out + "/d/data.csv", "--mask", out + "/d/mask.csv"]
for argv in (
        ["gen", "--d", "2", "--p", "2", "--u", "2", "--m", "8", "--n-per", "10",
         "--missing", "0.3", "--seed", "1", "--out", out + "/d"],
        ["complete", *data, "--out", out + "/complete"],
        ["stream", *data, "--out", out + "/stream"],
        ["ose", "--model", out + "/stream/model.ckpt", "--input",
         out + "/d/data.csv", "--mask", out + "/d/mask.csv",
         "--out", out + "/ose"]):
    code = main(argv)
    if code != 0:
        sys.exit(f"kfmc {argv[0]} exited {code}")
loaded = [name for name, module in sys.modules.items()
          if name.split(".")[0] == "scipy" and module is not None]
sys.exit(f"scipy modules loaded: {loaded}" if loaded else 0)
"""


def test_cli_commands_run_without_scipy(tmp_path):
    env = dict(os.environ, KFMC_THREADS="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for run in ("complete", "stream", "ose"):
        assert (tmp_path / run / "completed.csv").is_file()
