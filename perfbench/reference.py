"""The reference task: a fixed, mvnlock-free stand-in for one short mvnlock command.

    python3 perfbench/reference.py

It starts an interpreter, imports the standard-library modules mvnlock
imports, and parses, keys and sorts a fixed POM-like document a fixed number
of times. The benchmark runs it as a child next to every timed command and
reports each time at the speed this task measures (see cycle.reference_seconds),
so that drift in the machine's speed cancels out while a change to mvnlock
does not move the reference.
"""

import argparse  # noqa: F401  (imported for its start-up cost, as mvnlock does)
import collections  # noqa: F401
import concurrent.futures  # noqa: F401
import dataclasses  # noqa: F401
import functools  # noqa: F401
import hashlib
import json
import pathlib  # noqa: F401
import platform  # noqa: F401
import re
import tempfile  # noqa: F401
import typing  # noqa: F401
import urllib.error  # noqa: F401
import urllib.request  # noqa: F401
import xml.etree.ElementTree as ET

ROUNDS = 40
POM = "<project><dependencies>" + "".join(
    f"<dependency><groupId>org.ref.g{i % 7}</groupId><artifactId>lib{i}</artifactId>"
    f"<version>{i % 5}.{i % 11}-rc{i % 3}</version></dependency>" for i in range(40)
) + "</dependencies></project>"


def main() -> None:
    for _ in range(ROUNDS):
        keys = {}
        for dep in ET.fromstring(POM).iter("dependency"):
            parts = re.split(r"[.-]", dep.findtext("version"))
            keys[(dep.findtext("groupId"), dep.findtext("artifactId"))] = tuple(
                (0, int(p)) if p.isdigit() else (1, p) for p in parts)
        ordered = sorted(keys.items(), key=lambda item: item[1])
        hashlib.sha256(json.dumps(ordered).encode()).hexdigest()


if __name__ == "__main__":
    main()
