"""Command line front door: solve, verify, census and gen.

Every host is built from a spec, a JSON object that one of HOST_KINDS reads:
the host flags are turned into one, and an instance file or certificate
carries one.  Exit codes encode verdicts so harnesses never parse prose: 0 a
linkage was found (or the requested action succeeded), 2 an obstruction
witness was returned, 3 the constructive case analysis fell through or a
certificate failed its own check (a bug signal; nothing is emitted), 4 an
oracle search spent its budget (CUBELINK_ORACLE_TIMEOUT_MS), and 1
malformed input, which is raised as a ValueError.  A solver fault, a NoPath
inside a solver included, exits 3 too.  A command line that argparse
refuses, or that sets a flag its command would not read, is malformed input.
Output is deterministic: fixed key order, no timestamps in the certified
body.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .complexes import build_cube_polytope, build_from_incidence, link_polytope
from .errors import CaseNotCovered, CubelinkError, OracleTimeout
from .hypercube import MAX_DIM, CubeAdjacency, vertex_from_str, vertex_to_str
from .linkage.certs import Unlinkable, blocking, certify, check_pairing
from .linkage.cube import (cube_linkage, detect_config_3F, solve_cube,
                           solve_cube_strong)
from .linkage.cubical import solve_cubical, solve_cubical_strong
from .linkage.link import solve_link
from .oracle import census, linkable, oracle_linkage, oracle_timeout_ms
from .paths import MAX_SEARCH_VERTICES, validate_linkage

# what a JSON file that does not hold the expected document raises when read
_UNREADABLE = (OSError, json.JSONDecodeError, LookupError, TypeError,
              OverflowError)


# -- host plumbing -----------------------------------------------------------


class Host:
    """A solve/verify/census host, built from its spec by one of HOST_KINDS.

    `solve(pairs, avoid)` and `strong(pairs, x)` return certificates.
    `graph` is the host's one graph, which certify, verify, `--method
    oracle`, census and `--dot` all read: `CubeAdjacency(d)` on a cube host,
    which computes neighbours on access, and the lattice's graph on a
    polytope host.  `lattice()` returns the face lattice, which a cube host
    builds (once per dimension) only to find or check a config-3F witness.
    """

    def __init__(self, spec, dim, graph, label_of, vertex_of, solve, strong,
                 lattice):
        self.spec = spec
        self.dim = dim
        self.graph = graph
        self.label_of = label_of
        self.vertex_of = vertex_of
        self.solve = solve
        self.strong = strong
        self.lattice = lattice

    def witness(self, pairs):
        """The config-3F witness blocking `pairs`, or None.  It is the only
        configuration that blocks a whole host: 2 pairs in dimension 3."""
        if self.dim == 3 and len(pairs) == 2:
            return detect_config_3F(self.lattice(), pairs)
        return None


def _bits(label, d):
    """The vertex of Q_d that a d-bit label names."""
    if not isinstance(label, str):
        raise ValueError(f"bad label {label!r}, want a {d}-bit string")
    v = vertex_from_str(label)
    if len(label) != d:
        raise ValueError(f"vertex {label!r} is not {d} bits")
    return v


def _cube_host(spec):
    d = int(spec["dim"])

    def solve(pairs, avoid):
        return cube_linkage(d, pairs, avoid) if avoid else solve_cube(d, pairs)

    return Host({"kind": "cube", "dim": d}, d, CubeAdjacency(d),
                lambda v: vertex_to_str(v, d), lambda label: _bits(label, d),
                solve, lambda pairs, x: solve_cube_strong(d, pairs, x),
                lambda: build_cube_polytope(d))


def _link_host(spec):
    d = int(spec["cube_dim"])
    v = _bits(spec["vertex"], d) if spec.get("vertex") else 0
    P = link_polytope(d, v)  # refuses d before the d-bit label is written
    spec = {"kind": "link", "cube_dim": d, "vertex": vertex_to_str(v, d)}
    return _polytope_host(spec, P, lambda pairs: solve_link(d, v, pairs))


def _lattice_host(spec):
    path = spec.get("path")
    if not path:
        raise ValueError("lattice host needs --lattice FILE")
    path = str(path)  # a number would open that file descriptor
    P = _read_file(path, f"lattice file {path}", lambda data:
                   build_from_incidence(data["dim"], data["vertices"],
                                        data["facets"],
                                        labels=data.get("labels")))
    spec = {"kind": "lattice", "path": path, "dim": P.dim}
    return _polytope_host(spec, P, lambda pairs: solve_cubical(P, pairs))


def _polytope_host(spec, P, solve):
    """A host on the lattice P whose plain solver is `solve(pairs)`."""
    back = {lbl: v for v, lbl in P.labels.items()}

    def vertex_of(label):
        if not isinstance(label, str):
            raise ValueError(f"bad label {label!r}, want a string")
        if label not in back:
            raise ValueError(f"unknown vertex label {label!r}")
        return back[label]

    def solve_avoiding(pairs, avoid):
        if avoid:
            raise ValueError("--avoid outside cube hosts requires --strong")
        return solve(pairs)

    return Host(spec, P.dim, P.graph, P.labels.__getitem__, vertex_of,
                solve_avoiding,
                lambda pairs, x: solve_cubical_strong(P, pairs, x),
                lambda: P)


HOST_KINDS = {"cube": _cube_host, "link": _link_host, "lattice": _lattice_host}


def _host_from_spec(spec, lattice=None):
    """The host `spec` names.  A `lattice` path (the --lattice flag)
    overrides the file of a lattice spec and is refused with any other."""
    if not isinstance(spec, dict):
        raise ValueError(f"host must be a JSON object, not {spec!r}")
    kind = spec.get("kind")
    build = HOST_KINDS.get(kind)
    if build is None:
        raise ValueError(f"unknown host kind {kind!r}")
    if lattice:
        if kind != "lattice":
            raise ValueError("--lattice applies only to a lattice host, "
                             f"not a {kind} host")
        spec = dict(spec, path=lattice)
    return build(spec)


def _read_file(path, what, read):
    """`read` of the JSON document in the file at `path`, the one way a file
    is read.  A file that cannot be opened or parsed, or a document that
    `read` finds a field missing or of the wrong type in, raises
    ValueError("bad `what`: ...")."""
    try:
        with open(path) as fh:
            return read(json.load(fh))
    except _UNREADABLE as e:
        raise ValueError(f"bad {what}: {e}")


def _refuse(args, flags, why):
    """Refuse the first of `flags` set on the command line: a flag that the
    command would not read is an error, never ignored."""
    for name in flags:
        value = getattr(args, name)
        if value is not None and value is not False:
            raise ValueError(f"--{name} {why}")


def _flags_spec(args):
    """The host spec that the --cube, --link or --lattice flag names."""
    given = [name for name in ("cube", "link", "lattice")
             if getattr(args, name) is not None]
    if len(given) != 1:
        raise ValueError("choose exactly one of --cube D, --link D, "
                         "--lattice FILE")
    if args.link is None:
        _refuse(args, ("vertex",), "applies only to a --link host")
    if args.cube is not None:
        return {"kind": "cube", "dim": args.cube}
    if args.link is not None:
        return {"kind": "link", "cube_dim": args.link, "vertex": args.vertex}
    return {"kind": "lattice", "path": args.lattice}


def _labelled(host, pairs):
    return [[host.label_of(s), host.label_of(t)] for s, t in pairs]


def _instance(host, pairs, avoid, strong):
    """The instance object that solve certifies and gen random-instance
    prints; `_read_instance` reads it back."""
    return {"host": host.spec, "pairs": _labelled(host, pairs),
            "avoid": [host.label_of(v) for v in avoid], "strong": strong}


def _read_instance(inst, lattice=None):
    """The host, pairs, avoided vertices and strong flag of an instance
    object, the one reader of every instance solve and verify take, which
    refuses a strong instance of the wrong shape; `lattice` is the
    --lattice flag."""
    host = _host_from_spec(inst["host"], lattice)
    pairs = []
    for pair in inst["pairs"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"bad pair {pair!r}, want [LABEL, LABEL]")
        pairs.append((host.vertex_of(pair[0]), host.vertex_of(pair[1])))
    avoid = [host.vertex_of(l) for l in inst.get("avoid", [])]
    strong = inst.get("strong", False)
    if not isinstance(strong, bool):
        raise ValueError("instance \"strong\" must be true or false")
    if strong:
        # the shape of a strong instance, whichever method solves or
        # verifies it: one avoided vertex, the unpaired terminal, and d/2
        # pairs in even d
        if len(avoid) != 1:
            raise ValueError("--strong needs exactly one --avoid vertex")
        if host.dim % 2:
            raise ValueError("strong linkage needs even d")
        if 2 * len(pairs) != host.dim:
            raise ValueError(f"need exactly {host.dim // 2} pairs")
    return host, pairs, avoid, strong


def _flags_instance(args):
    """The instance object that solve's flags spell, as gen random-instance
    prints one: --pairs "A-B,C-D" and --avoid "E,F" list labels."""
    spec = _flags_spec(args)
    if not args.pairs:
        raise ValueError("need --pairs or --instance")
    chunks = lambda text: [c.strip() for c in text.split(",")]
    return {"host": spec, "pairs": [c.split("-") for c in chunks(args.pairs)],
            "avoid": chunks(args.avoid) if args.avoid else [],
            "strong": args.strong}


# -- solve -------------------------------------------------------------------


def _deadline():
    """When an oracle search that starts now runs out of its budget."""
    return time.monotonic() + oracle_timeout_ms() / 1000


def _oracle_solve(host, pairs, avoid):
    def search(ps, trace):
        trace.append("oracle/search")
        sol = oracle_linkage(host.graph, ps, avoid, _deadline())
        if sol is None:
            raise Unlinkable(host.witness(ps))
        return sol
    return certify(host.spec, host.graph, host.label_of, pairs, search, avoid)


def _emit(payload):
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _dot(host, pairs, paths):
    colors = ["red", "blue", "darkgreen", "orange", "purple"]
    on_path = {}
    for i, p in enumerate(paths or []):
        for a, b in zip(p, p[1:]):
            on_path[frozenset((a, b))] = colors[i % len(colors)]
    lines = ["graph cubelink {", "  node [shape=circle fontsize=10];"]
    for v in sorted(host.graph):
        mark = ' style=filled fillcolor=lightgray' \
            if any(v in p for p in pairs) else ""
        lines.append(f'  "{host.label_of(v)}" [{mark.strip()}];'
                     if mark else f'  "{host.label_of(v)}";')
    seen = set()
    for v in sorted(host.graph):
        for w in host.graph[v]:
            e = frozenset((v, w))
            if e in seen:
                continue
            seen.add(e)
            color = on_path.get(e)
            attr = f' [color={color} penwidth=2]' if color else ""
            lines.append(f'  "{host.label_of(v)}" -- "{host.label_of(w)}"'
                         f'{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_solve(args):
    if args.instance:
        # the file names the whole instance; --lattice may move its file
        _refuse(args, ("cube", "link", "vertex", "pairs", "avoid", "strong"),
                "does not go with --instance, whose file names the instance")
        host, pairs, avoid, strong = _read_file(
            args.instance, "instance file",
            lambda inst: _read_instance(inst, args.lattice))
    else:
        host, pairs, avoid, strong = _read_instance(_flags_instance(args))
    if args.dot and len(host.graph) > MAX_SEARCH_VERTICES:
        # every vertex and edge becomes a line: refuse before solving
        raise ValueError(f"--dot draws hosts of at most {MAX_SEARCH_VERTICES}"
                         f" vertices, not {len(host.graph)}")

    instance = _instance(host, pairs, avoid, strong)
    if args.method == "oracle":
        cert = _oracle_solve(host, pairs, avoid)
    else:
        cert = (host.strong(pairs, avoid[0]) if strong
                else host.solve(pairs, avoid))
        if args.method == "auto" and cert.paths is None:
            # cross-check the witness against ground truth before emitting
            if linkable(host.graph, pairs, avoid, _deadline()):
                raise CaseNotCovered("witness contradicted by search",
                                     trace=cert.trace)
    payload = cert.to_json(label=host.label_of)
    payload["instance"] = instance
    if args.trace:
        for line in cert.trace:
            print(line, file=sys.stderr)
    if args.dot:
        sys.stdout.write(_dot(host, pairs, cert.paths))
    else:
        _emit(payload)
    return 0 if cert.paths is not None else 2


# -- verify ------------------------------------------------------------------


def _verify_obstruction(host, pairs, obs):
    """Check a config-3F witness, the one configuration that blocks a host.

    It blocks only two pairs in a 3-polytope: both pairs are the diagonals of
    one 2-face.  config-dF blocks a linkage inside a vertex star, never a
    whole host, so a host certificate carrying it is rejected.
    """
    if not isinstance(obs, dict):
        raise TypeError(f"obstruction must be a JSON object, not {obs!r}")
    kind = obs.get("kind")
    if kind != "config-3F":
        return False, f"obstruction kind {kind!r} does not block a host"
    if host.dim != 3 or len(pairs) != 2:
        return False, "config-3F blocks only 2 pairs in a 3-polytope"
    face = frozenset(host.vertex_of(l) for l in obs["facet"])
    s1, t1 = (host.vertex_of(obs["pair"][0]), host.vertex_of(obs["pair"][1]))
    if (s1, t1) not in pairs and (t1, s1) not in pairs:
        return False, "witness pair is not one of the instance pairs"
    P = host.lattice()
    if face not in P.facets:
        return False, "witness face is not a facet of the host"
    witness = blocking(P, kind, face, s1, t1, {v for p in pairs for v in p})
    if witness is None:
        return False, "witness face does not block the pair"
    if sorted(host.vertex_of(l) for l in obs["blocking"]) != witness.blocking:
        return False, "blocking list is not t1's face neighbours"
    return True, "ok"


def _check_certificate(cert, lattice):
    """(ok, message): whether the certificate's result answers its
    instance."""
    host, pairs, avoid, _ = _read_instance(cert["instance"], lattice)
    pairs = check_pairing(pairs)
    result = cert["result"]
    if "linkage" in result:
        paths = [[host.vertex_of(l) for l in p] for p in result["linkage"]]
        return validate_linkage(host.graph, pairs, paths, avoid)
    if "obstruction" in result:
        return _verify_obstruction(host, pairs, result["obstruction"])
    return False, "certificate has neither linkage nor obstruction"


def cmd_verify(args):
    ok, msg = _read_file(args.certificate, "certificate",
                         lambda cert: _check_certificate(cert, args.lattice))
    print(f"{'PASS' if ok else 'FAIL'}: {msg}")
    return 0 if ok else 1


# -- census ------------------------------------------------------------------


def cmd_census(args):
    if args.exhaustive:
        _refuse(args, ("sample", "seed"), "does not go with --exhaustive")
    elif args.sample is None:
        raise ValueError("census needs --exhaustive or --sample N")
    host = _host_from_spec(_flags_spec(args))

    def detector(pairs):
        return "config-3F" if host.witness(pairs) else None

    rep = census(host.graph, args.k, host=json.dumps(host.spec, sort_keys=True),
                 sample=None if args.exhaustive else args.sample,
                 seed=args.seed or 0, detector=detector)
    out = rep.to_json()
    for key in ("witness_samples", "detector_mismatches"):
        out[key] = [dict(w, pairs=_labelled(host, w["pairs"])) for w in out[key]]
    _emit(out)
    return 0


# -- gen ---------------------------------------------------------------------


# the gen flags that each target does not read
_GEN_UNREAD = {"cube": ("cube", "vertex", "k", "seed", "strong"),
               "link": ("dim", "k", "seed", "strong"),
               "random-instance": ("dim", "vertex")}


def cmd_gen(args):
    _refuse(args, _GEN_UNREAD[args.what],
            f"does not apply to gen {args.what}")
    if args.what == "cube":
        if args.dim is None:
            raise ValueError("gen cube needs --dim")
        _emit(build_cube_polytope(args.dim).to_json())
        return 0
    if args.what == "link":
        if args.cube is None:
            raise ValueError("gen link needs --cube D")
        host = _link_host({"cube_dim": args.cube, "vertex": args.vertex})
        _emit(host.lattice().to_json())
        return 0
    # random-instance, the last of the targets argparse admits
    if args.cube is None or args.k is None:
        raise ValueError("gen random-instance needs --cube D and --k")
    import random

    d, k = args.cube, args.k
    # the instances solve --instance accepts: Q_d is floor((d+1)/2)-linked,
    # and strongly d/2-linked for even d
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"--cube must be between 1 and {MAX_DIM}, not {d}")
    if not 1 <= k <= (d + 1) // 2:
        raise ValueError(
            f"--k must be between 1 and {(d + 1) // 2} in Q_{d}, not {k}")
    if args.strong and (d % 2 or 2 * k != d):
        raise ValueError(f"--strong needs an even --cube D and --k D/2, "
                         f"not D = {d} and k = {k}")
    rng = random.Random(args.seed or 0)
    X = rng.sample(range(1 << d), 2 * k + (1 if args.strong else 0))
    pairs = list(zip(X[:2 * k:2], X[1:2 * k:2]))
    _emit(_instance(_cube_host({"dim": d}), pairs, X[2 * k:], args.strong))
    return 0


# -- entry point -------------------------------------------------------------


def _add_host_flags(p):
    p.add_argument("--cube", type=int, help="host: the cube Q_D")
    p.add_argument("--link", type=int,
                   help="host: the link of a vertex in Q_D")
    p.add_argument("--vertex", help="link host: vertex label (default 0...0)")
    p.add_argument("--lattice", help="host: polytope lattice JSON file")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cubelink",
        description="Vertex-disjoint path linkages in cubes and cubical "
                    "polytopes.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a linkage instance")
    _add_host_flags(p)
    p.add_argument("--pairs", help='terminal pairs, e.g. "000-111,001-110"')
    p.add_argument("--avoid", help="comma-separated vertices to avoid")
    p.add_argument("--instance", help="instance JSON file instead of flags")
    p.add_argument("--strong", action="store_true",
                   help="strong mode: the avoided vertex is the unpaired "
                        "terminal")
    p.add_argument("--method", choices=("auto", "constructive", "oracle"),
                   default="auto")
    p.add_argument("--trace", action="store_true",
                   help="echo the proof trace to stderr")
    p.add_argument("--dot", action="store_true",
                   help="emit a DOT rendering instead of JSON")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="re-check an emitted certificate")
    p.add_argument("certificate")
    p.add_argument("--lattice", help="lattice file override for lattice hosts")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("census", help="oracle census over pairings")
    _add_host_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int, help="sample seed (default 0)")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("gen", help="generate lattices and instances")
    p.add_argument("what", choices=("cube", "link", "random-instance"))
    p.add_argument("--dim", type=int)
    p.add_argument("--cube", type=int)
    p.add_argument("--vertex")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, help="instance seed (default 0)")
    p.add_argument("--strong", action="store_true")
    p.set_defaults(fn=cmd_gen)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse printed the help (code 0) or its usage and error
        return 1 if e.code else 0
    try:
        return args.fn(args)
    except CaseNotCovered as e:
        print(f"case not covered: {e} trace={e.trace}", file=sys.stderr)
        return 3
    except (ValueError, CubelinkError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4 if isinstance(e, OracleTimeout) else 1


if __name__ == "__main__":
    sys.exit(main())
