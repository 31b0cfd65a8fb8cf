"""Seeded synthetic file: repositories and projects, one shape per workload.

Every file is written with the raw-XML builders of ``tests/conftest.py``
(``RepoBuilder``, ``dep_xml``, ``pom_xml``), never with mvnlock's own writers,
so the program reads input it did not produce. The same workload and seed
always give byte-identical trees. Sizes that set the amount of work (artifact
count, closure size, total jar bytes, largest jar) are fixed or concentrated
by construction, so that runs on different seeds measure the same work.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

QUALIFIERS = ("", "-alpha1", "-rc1", ".Final", "-sp1")
MIB = 1 << 20


def load_builders(root: Path):
    """Import tests/conftest.py read-only, as a plain module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_conftest", root / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@dataclass
class Workload:
    """A generated repository and project, plus what the cycle needs to check them."""

    name: str
    seed: int
    root: Path
    remote: Path
    project: Path
    cache: Path
    poms: dict[str, str]                 # module rel path -> pom.xml text as generated
    directs: dict[str, set[tuple[str, str]]]   # module rel path -> declared direct GAs
    checksum_mode: str                   # "local" or "remote"
    algorithm: str
    tamper_k: int
    edit_module: str
    edit_pom: str                        # the edited module's pom.xml text
    edit_ga: tuple[str, str]
    jar_files: dict[tuple[str, str, str], Path]   # every published jar

    @property
    def url(self) -> str:
        """The remote as a file: URL relative to the workload root, where commands run."""
        return "file:" + self.remote.relative_to(self.root).as_posix()

    @property
    def flags(self) -> list[str]:
        """Added to every command."""
        return ["--checksum-mode", self.checksum_mode, "--checksum-algorithm", self.algorithm]

    @property
    def offline_flags(self) -> list[str]:
        """Added to `validate --offline`: a remote-mode lockfile can only be checked
        offline against local digests, or the command exits 2."""
        return ["--override-checksum-mode", "local"] if self.checksum_mode == "remote" else []

    @property
    def tamper_kind(self) -> str:
        """Finding a flipped cached jar raises: in remote mode the sidecar still matches
        the lockfile and only the cache disagrees."""
        return "source-mismatch" if self.checksum_mode == "remote" else "checksum-mismatch"

    def reset(self) -> None:
        """Restore every pom.xml and remove lockfiles and frozen POMs."""
        for rel, text in self.poms.items():
            directory = self.project / rel
            (directory / "pom.xml").write_text(text, encoding="utf-8")
            for name in ("lockfile.json", "pom.lockfile.xml"):
                (directory / name).unlink(missing_ok=True)


def _versions(rng: random.Random, count: int) -> list[str]:
    major = rng.randint(1, 5)
    minors = sorted(rng.sample(range(1, 10), count))
    return [f"{major}.{m}{rng.choice(QUALIFIERS)}" for m in minors]


def _range_for(versions: list[str]) -> str:
    major = int(versions[0].split(".")[0])
    return f"[{major}.0,{major + 1}.0)"


@dataclass
class _Pool:
    coords: list[tuple[str, str]]
    versions: list[list[str]]
    targets: list[list[int]]      # artifacts each artifact depends on, in every version

    def closure(self, roots) -> set[int]:
        """Artifacts reachable from `roots`: what a module locks, whichever versions win."""
        seen, todo = set(roots), list(roots)
        while todo:
            for t in self.targets[todo.pop()]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen


def _build_pool(b, rng: random.Random, repo, n: int, versions_per: int, layers: int,
                fanout: int, range_frac: float, jar_sizes: list[int] | None = None,
                block: bytes = b"", prefix: str = "") -> _Pool:
    """Layered DAG: each artifact depends on `fanout` artifacts of deeper layers.

    Every version of an artifact depends on the same artifacts, so what a
    module locks does not depend on which versions win, only their versions
    do. One of them is the artifact's "owned" artifact of the next layer, a
    seeded one-to-one match, so each artifact below the first layer is
    reachable from the layer above. The others are mostly in the next layer and
    sometimes in any deeper one, so the graph has one depth and no cycles. Per
    version, a share `range_frac` of edges are ranges over the target's major
    version; the rest pin one of its versions.
    """
    coords = [(f"org.pb.g{i % 16:02d}", f"{prefix}lib{i:04d}") for i in range(n)]
    versions = [_versions(rng, versions_per) for _ in range(n)]
    starts = [layer * n // layers for layer in range(layers + 1)]
    layer_of = [layer for layer in range(layers) for _ in range(starts[layer], starts[layer + 1])]
    targets: list[list[int]] = [[] for _ in range(n)]
    for layer in range(layers - 1):
        below = list(range(starts[layer + 1], starts[layer + 2]))
        rng.shuffle(below)
        for k, i in enumerate(range(starts[layer], starts[layer + 1])):
            chosen = {below[k % len(below)]}
            while len(chosen) < fanout:
                chosen.add(rng.choice(below) if rng.random() < 0.7
                           else rng.randrange(starts[layer + 1], n))
            targets[i] = sorted(chosen)
    for i, (group, artifact) in enumerate(coords):
        for v_index, version in enumerate(versions[i]):
            deps = []
            for t in targets[i]:
                if rng.random() < range_frac:
                    spec = _range_for(versions[t])
                else:
                    spec = rng.choice(versions[t])
                scope = "runtime" if rng.random() < 0.1 else None
                deps.append(b.dep_xml(*coords[t], spec, scope=scope))
            jar = None
            if jar_sizes is not None:
                jar = _jar_payload(block, f"{group}:{artifact}:{version}", jar_sizes[i],
                                   i * versions_per + v_index)
            repo.add(group, artifact, version, deps=tuple(deps), jar=jar)
    return _Pool(coords, versions, targets)


def _jar_payload(block: bytes, label: str, size: int, index: int) -> bytes:
    """`size` bytes: a label, then the seeded block rotated per jar and repeated."""
    shift = (index * 4099) % len(block)
    body = block[shift:] + block[:shift]
    head = f"jar::{label}::".encode()
    reps = -(-(size - len(head)) // len(body))
    return (head + body * reps)[:size]


def _jar_sizes(rng: random.Random, half: int, total: int, largest: int,
               medium: int) -> tuple[list[int], list[int]]:
    """Heavy-tailed jar sizes for the two halves of fat-jars, summing to `total`.

    Most jars are under 2 MiB. The first half holds the one largest jar, of
    exactly `largest` bytes; the second holds `medium` jars of tens of MiB that
    share what the small ones leave of `total`, together less than `largest`.
    Within its module the largest jar is then only ever in memory with small
    ones; with two module threads, a medium jar of the other module may be too.
    """
    small = [min(2 * MIB - 1, int(rng.lognormvariate(math.log(400_000), 0.9)))
             for _ in range(2 * half - 1 - medium)]
    rest = total - largest - sum(small)
    weights = [rng.uniform(1.0, 2.0) for _ in range(medium)]
    others = [int(w * rest / sum(weights)) for w in weights]
    others[0] += rest - sum(others)
    first = [largest] + small[:half - 1]
    second = others + small[half - 1:]
    rng.shuffle(first)
    rng.shuffle(second)
    return first, second


def _module_deps(b, rng: random.Random, pool: _Pool, candidates: list[int], count: int,
                 locked: int, managed: set[int], props: dict[int, str], range_frac: float):
    """`count` direct dependencies whose closure is `locked` artifacts, give or take 2."""
    picked = sorted(rng.sample(candidates, count))
    while abs(len(pool.closure(picked)) - locked) > 2:
        picked = sorted(rng.sample(candidates, count))
    deps = []
    for i in picked:
        if i in managed:
            deps.append(b.dep_xml(*pool.coords[i]))          # version from dependencyManagement
        elif i in props:
            deps.append(b.dep_xml(*pool.coords[i], "${" + props[i] + "}"))
        elif rng.random() < range_frac:
            deps.append(b.dep_xml(*pool.coords[i], _range_for(pool.versions[i])))
        else:
            deps.append(b.dep_xml(*pool.coords[i], rng.choice(pool.versions[i])))
    return deps, picked


def _ranges_shared(b, rng, root: Path) -> dict:
    repo = b.RepoBuilder(root / "remote")
    pool = _build_pool(b, rng, repo, n=320, versions_per=3, layers=8, fanout=2,
                       range_frac=0.4)
    candidates = list(range(0, 80))     # the first two layers
    # a quarter each, so the 12 direct dependencies nearly always include both kinds
    managed = set(rng.sample(candidates, 20))
    rest = [i for i in candidates if i not in managed]
    props = {i: f"lib{i:04d}.version" for i in rng.sample(rest, 20)}
    properties = {name: rng.choice(pool.versions[i]) for i, name in sorted(props.items())}
    for i in sorted(managed):
        name = f"managed{i:04d}.version"
        properties[name] = rng.choice(pool.versions[i])
    dm = tuple(b.dep_xml(*pool.coords[i], "${" + f"managed{i:04d}.version" + "}")
               for i in sorted(managed))
    names = [f"mod{m}" for m in range(4)]
    poms = {".": b.pom_xml("com.bench", "parent", "1.0", packaging="pom",
                           properties=properties, modules=tuple(names), dm=dm)}
    directs: dict[str, set] = {".": set()}
    parent = ("com.bench", "parent", "1.0")
    picks = {}
    for name in names:
        deps, picks[name] = _module_deps(b, rng, pool, candidates, 3, 125, managed, props, 0.4)
        poms[name] = b.pom_xml(None, name, None, parent=parent, deps=tuple(deps))
        directs[name] = {pool.coords[i] for i in picks[name]}
    # the edit makes a transitive dependency direct, so regeneration locks as many artifacts
    module = rng.choice(names)
    extra = rng.choice(sorted(pool.closure(picks[module]) - set(picks[module])))
    edit_dep = b.dep_xml(*pool.coords[extra], rng.choice(pool.versions[extra]))
    return dict(repo=repo, poms=poms, directs=directs, checksum_mode="remote",
                algorithm="sha512", tamper_k=4,
                edit=(module, edit_dep, pool.coords[extra]))


def _fat_jars(b, rng, root: Path) -> dict:
    repo = b.RepoBuilder(root / "remote")
    half = 40
    sizes = _jar_sizes(rng, half, total=192 * MIB, largest=96 * MIB, medium=4)
    block = rng.randbytes(MIB)
    # two independent halves, one per module, so each jar is fetched once
    coords, versions, targets = [], [], []
    for part in range(2):
        sub = _build_pool(b, rng, repo, n=half, versions_per=1, layers=4, fanout=2,
                          range_frac=0.0, jar_sizes=sizes[part], block=block,
                          prefix=f"m{part}")
        coords += sub.coords
        versions += sub.versions
        targets += [[t + part * half for t in ts] for ts in sub.targets]
    pool = _Pool(coords, versions, targets)
    names = ["app", "svc"]
    poms = {".": b.pom_xml("com.bench", "fat-parent", "1.0", packaging="pom",
                           modules=tuple(names))}
    directs: dict[str, set] = {".": set()}
    parent = ("com.bench", "fat-parent", "1.0")
    for part, name in enumerate(names):
        roots = list(range(part * half, part * half + half // 4))   # the whole first layer
        deps = [b.dep_xml(*pool.coords[i], pool.versions[i][0]) for i in roots]
        poms[name] = b.pom_xml(None, name, None, parent=parent, deps=tuple(deps))
        directs[name] = {pool.coords[i] for i in roots}
    # the edit makes a transitive dependency direct, so regeneration locks as many artifacts
    module = rng.choice(names)
    part = names.index(module)
    extra = rng.choice(range(part * half + half // 4, (part + 1) * half))
    edit_dep = b.dep_xml(*pool.coords[extra], pool.versions[extra][0])
    return dict(repo=repo, poms=poms, directs=directs, checksum_mode="local",
                algorithm="sha256", tamper_k=3,
                edit=(module, edit_dep, pool.coords[extra]))


SHAPES = {
    "ranges-shared": _ranges_shared,
    "fat-jars": _fat_jars,
}


def build(b, name: str, seed: int, root: Path) -> Workload:
    """Write workload `name` for `seed` under `root` (which must not exist yet)."""
    rng = random.Random(f"{name}:{seed}")
    shape = SHAPES[name](b, rng, root)
    project = root / "project"
    for rel, text in shape["poms"].items():
        (project / rel).mkdir(parents=True, exist_ok=True)
        (project / rel / "pom.xml").write_text(text, encoding="utf-8")
    module, edit_dep, edit_ga = shape["edit"]
    edit_pom = shape["poms"][module].replace("</dependencies>", edit_dep + "</dependencies>", 1)
    repo = shape["repo"]
    jar_files = {(g, a, v): repo.artifact_path(g, a, v)
                 for (g, a), listed in repo.versions.items() for v in listed}
    return Workload(
        name=name, seed=seed, root=root, remote=repo.root, project=project,
        cache=root / "cache", poms=shape["poms"], directs=shape["directs"],
        checksum_mode=shape["checksum_mode"], algorithm=shape["algorithm"],
        tamper_k=shape["tamper_k"], edit_module=module, edit_pom=edit_pom,
        edit_ga=edit_ga, jar_files=jar_files,
    )


def tree_digest(directory: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted path order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        with path.open("rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        digest.update(b"\0")
    return digest.hexdigest()
