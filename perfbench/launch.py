"""Start ``repro`` through its own CLI with the benchmark's spans armed.

    python3 perfbench/launch.py --trace-out SPANS.json serve --snapshot S --port P

installs the wrappers of :mod:`spans`, then calls ``repro.cli.main``
with the remaining arguments, so traced and untraced servers share the
CLI code path.  The spans are written when the CLI returns (the server
stops on SIGINT).
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    argv = sys.argv[1:]
    if argv[:1] != ["--trace-out"] or len(argv) < 3:
        print("usage: launch.py --trace-out PATH <repro arguments>", file=sys.stderr)
        return 2
    out, argv = argv[1], argv[2:]
    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
