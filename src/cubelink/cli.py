"""Command line front door: solve, verify, census and gen.

Exit codes encode verdicts so harnesses never parse prose: 0 a linkage was
found (or the requested action succeeded), 2 an obstruction witness was
returned, 3 the constructive case analysis fell through or a certificate
failed its own check (a bug signal; nothing is emitted), and 1 malformed
input.  Output is deterministic: fixed key order, no timestamps
in the certified body.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .complexes import Polytope, build_cube_polytope, build_from_incidence, link_polytope
from .errors import CaseNotCovered, CubelinkError
from .hypercube import cube_graph, vertex_from_str, vertex_to_str
from .linkage.certs import Unlinkable, certify
from .linkage.cube import (cube_linkage, detect_config_3F, solve_cube,
                           solve_cube_strong)
from .linkage.cubical import solve_cubical, solve_cubical_strong
from .linkage.link import solve_link
from .oracle import census, oracle_linkage
from .paths import validate_linkage


class InputError(Exception):
    pass


# -- host plumbing -----------------------------------------------------------


@dataclass(eq=False)
class Host:
    """A solve/verify/census host, built from its spec by one of HOST_KINDS.

    `solve(pairs, avoid)` and `strong(pairs, x)` return certificates.  The
    face lattice, `polytope`, is built by `lattice()` the first time it is
    read, which is only to find or check a config-3F witness.
    """

    spec: dict
    dim: int
    graph: dict
    label_of: Callable
    vertex_of: Callable
    solve: Callable
    strong: Callable
    lattice: Callable

    @cached_property
    def polytope(self) -> Polytope:
        return self.lattice()

    def witness(self, pairs):
        """The config-3F witness blocking `pairs`, or None.  It is the only
        configuration that blocks a whole host: 2 pairs in dimension 3."""
        if self.dim == 3 and len(pairs) == 2:
            return detect_config_3F(self.polytope, pairs)
        return None


def _cube_host(spec):
    d = int(spec["dim"])

    def vertex_of(label):
        v = vertex_from_str(label)
        if len(label) != d:
            raise InputError(f"vertex {label!r} is not {d} bits")
        return v

    def solve(pairs, avoid):
        return cube_linkage(d, pairs, avoid) if avoid else solve_cube(d, pairs)

    return Host({"kind": "cube", "dim": d}, d, cube_graph(d),
                lambda v: vertex_to_str(v, d), vertex_of, solve,
                lambda pairs, x: solve_cube_strong(d, pairs, x),
                lambda: build_cube_polytope(d))


def _link_host(spec):
    d = int(spec["cube_dim"])
    v = vertex_from_str(spec["vertex"]) if spec.get("vertex") else 0
    spec = {"kind": "link", "cube_dim": d, "vertex": vertex_to_str(v, d)}
    return _polytope_host(spec, link_polytope(d, v),
                          lambda pairs: solve_link(d, v, pairs))


def _lattice_host(spec):
    path = spec.get("path")
    if not path:
        raise InputError("lattice host needs --lattice FILE")
    try:
        with open(path) as fh:
            data = json.load(fh)
        P = build_from_incidence(data["dim"], data["vertices"], data["facets"],
                                 labels=data.get("labels"))
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise InputError(f"bad lattice file {path}: {e}")
    spec = {"kind": "lattice", "path": str(path), "dim": P.dim}
    return _polytope_host(spec, P, lambda pairs: solve_cubical(P, pairs))


def _polytope_host(spec, P, solve):
    """A host on the lattice P whose plain solver is `solve(pairs)`."""
    back = {lbl: v for v, lbl in P.labels.items()}

    def vertex_of(label):
        if label not in back:
            raise InputError(f"unknown vertex label {label!r}")
        return back[label]

    def solve_avoiding(pairs, avoid):
        if avoid:
            raise InputError("--avoid outside cube hosts requires --strong")
        return solve(pairs)

    return Host(spec, P.dim, P.graph, P.labels.__getitem__, vertex_of,
                solve_avoiding,
                lambda pairs, x: solve_cubical_strong(P, pairs, x),
                lambda: P)


HOST_KINDS = {"cube": _cube_host, "link": _link_host, "lattice": _lattice_host}


def _flags_spec(args):
    """The host spec that the --cube, --link or --lattice flag names."""
    given = [name for name in ("cube", "link", "lattice")
             if getattr(args, name) is not None]
    if len(given) != 1:
        raise InputError("choose exactly one of --cube D, --link D, "
                         "--lattice FILE")
    if args.cube is not None:
        return {"kind": "cube", "dim": args.cube}
    if args.link is not None:
        return {"kind": "link", "cube_dim": args.link, "vertex": args.vertex}
    return {"kind": "lattice", "path": args.lattice}


def _host_from_args(args, spec=None):
    """The host `spec` names, else the one the host flags name.  A --lattice
    flag overrides the file of a lattice spec."""
    if spec is None:
        spec = _flags_spec(args)
    if spec.get("kind") == "lattice" and args.lattice:
        spec = dict(spec, path=args.lattice)
    build = HOST_KINDS.get(spec.get("kind"))
    if build is None:
        raise InputError(f"unknown host kind {spec.get('kind')!r}")
    return build(spec)


def _parse_pairs(host, text):
    pairs = []
    for chunk in text.split(","):
        ends = chunk.strip().split("-")
        if len(ends) != 2:
            raise InputError(f"bad pair {chunk!r}, want LABEL-LABEL")
        pairs.append((host.vertex_of(ends[0]), host.vertex_of(ends[1])))
    return pairs


def _parse_avoid(host, text):
    if not text:
        return []
    return [host.vertex_of(c.strip()) for c in text.split(",")]


# -- solve -------------------------------------------------------------------


def _constructive(host, pairs, avoid, strong):
    if not strong:
        return host.solve(pairs, avoid)
    if len(avoid) != 1:
        raise InputError("--strong needs exactly one --avoid vertex")
    return host.strong(pairs, avoid[0])


def _oracle_solve(host, pairs, avoid, instance):
    def search(ps, trace):
        trace.append("oracle/search")
        sol = oracle_linkage(host.graph, ps, avoid=avoid)
        if sol is None:
            raise Unlinkable(host.witness(ps))
        return sol
    return certify(instance, pairs, search, lambda: host.graph, avoid)


def _emit(payload, out=None):
    (out or sys.stdout).write(json.dumps(payload, indent=2) + "\n")


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
        try:
            with open(args.instance) as fh:
                data = json.load(fh)
            host = _host_from_args(args, spec=data["host"])
            pairs = [(host.vertex_of(a), host.vertex_of(b))
                     for a, b in data["pairs"]]
            avoid = [host.vertex_of(l) for l in data.get("avoid", [])]
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
            raise InputError(f"bad instance file: {e}")
    else:
        host = _host_from_args(args)
        if not args.pairs:
            raise InputError("need --pairs or --instance")
        pairs = _parse_pairs(host, args.pairs)
        avoid = _parse_avoid(host, args.avoid)

    instance = {
        "host": host.spec,
        "pairs": [[host.label_of(s), host.label_of(t)] for s, t in pairs],
        "avoid": [host.label_of(v) for v in avoid],
        "strong": bool(args.strong),
    }
    if args.method == "oracle":
        cert = _oracle_solve(host, pairs, avoid, instance)
    else:
        cert = _constructive(host, pairs, avoid, args.strong)
        if args.method == "auto" and cert.paths is None:
            # cross-check the witness against ground truth before emitting
            if oracle_linkage(host.graph, pairs, avoid=avoid) is not None:
                raise CaseNotCovered("witness contradicted by search")
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
    kind = obs.get("kind")
    if kind != "config-3F":
        return False, f"obstruction kind {kind!r} does not block a host"
    if host.dim != 3 or len(pairs) != 2:
        return False, "config-3F blocks only 2 pairs in a 3-polytope"
    X = {v for p in pairs for v in p}
    face = [host.vertex_of(l) for l in obs["facet"]]
    s1, t1 = (host.vertex_of(obs["pair"][0]), host.vertex_of(obs["pair"][1]))
    if (s1, t1) not in pairs and (t1, s1) not in pairs:
        return False, "witness pair is not one of the instance pairs"
    if len(X & set(face)) < 4:
        return False, "too few terminals in the witness face"
    P = host.polytope
    if not P.face_of(face) or P.dim_of(face) != 2:
        return False, "witness face is not a 2-face of the host"
    if P.opposite_in_face(face, t1) != s1:
        return False, "witness pair is not opposite in the face"
    nbrs = sorted(w for w in host.graph[t1] if w in set(face))
    if not all(w in X for w in nbrs):
        return False, "not every face neighbour of t1 is a terminal"
    if sorted(host.vertex_of(l) for l in obs["blocking"]) != nbrs:
        return False, "blocking list is not t1's face neighbours"
    return True, "ok"


def cmd_verify(args):
    try:
        with open(args.certificate) as fh:
            data = json.load(fh)
        inst = data["instance"]
        host = _host_from_args(args, spec=inst["host"])
        pairs = [(host.vertex_of(a), host.vertex_of(b))
                 for a, b in inst["pairs"]]
        avoid = [host.vertex_of(l) for l in inst.get("avoid", [])]
        result = data["result"]
        if "linkage" in result:
            paths = [[host.vertex_of(l) for l in p] for p in result["linkage"]]
            ok, msg = validate_linkage(host.graph, pairs, paths, avoid)
        elif "obstruction" in result:
            ok, msg = _verify_obstruction(host, pairs, result["obstruction"])
        else:
            ok, msg = False, "certificate has neither linkage nor obstruction"
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise InputError(f"bad certificate: {e}")
    print(f"{'PASS' if ok else 'FAIL'}: {msg}")
    return 0 if ok else 1


# -- census ------------------------------------------------------------------


def cmd_census(args):
    host = _host_from_args(args)

    def detector(pairs):
        return "config-3F" if host.witness(pairs) else None

    mode = "exhaustive" if args.exhaustive else "sample"
    if not args.exhaustive and not args.sample:
        raise InputError("census needs --exhaustive or --sample N")
    host_name = json.dumps(host.spec, sort_keys=True)
    rep = census(host.graph, args.k, host=host_name, mode=mode,
                 sample=args.sample, seed=args.seed, detector=detector)
    out = rep.to_json()
    out["witness_samples"] = [
        {"pairs": [[host.label_of(a), host.label_of(b)] for a, b in w["pairs"]],
         "kind": w["kind"]} for w in out["witness_samples"]]
    out["detector_mismatches"] = [
        {"pairs": [[host.label_of(a), host.label_of(b)] for a, b in m["pairs"]],
         "detector": m["detector"], "oracle": m["oracle"]}
        for m in out["detector_mismatches"]]
    _emit(out)
    return 0


# -- gen ---------------------------------------------------------------------


def cmd_gen(args):
    if args.what == "cube":
        if args.dim is None:
            raise InputError("gen cube needs --dim")
        _emit(build_cube_polytope(args.dim).to_json())
        return 0
    if args.what == "link":
        if args.cube is None:
            raise InputError("gen link needs --cube D")
        v = vertex_from_str(args.vertex) if args.vertex else 0
        _emit(link_polytope(args.cube, v).to_json())
        return 0
    if args.what == "random-instance":
        if args.cube is None or args.k is None:
            raise InputError("gen random-instance needs --cube D and --k")
        import random

        rng = random.Random(args.seed)
        d = args.cube
        n = 2 * args.k + (1 if args.strong else 0)
        X = rng.sample(range(1 << d), n)
        inst = {
            "host": {"kind": "cube", "dim": d},
            "pairs": [[vertex_to_str(X[2 * i], d), vertex_to_str(X[2 * i + 1], d)]
                      for i in range(args.k)],
            "avoid": [vertex_to_str(X[-1], d)] if args.strong else [],
        }
        _emit(inst)
        return 0
    raise InputError(f"unknown gen target {args.what!r}")


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
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("gen", help="generate lattices and instances")
    p.add_argument("what", choices=("cube", "link", "random-instance"))
    p.add_argument("--dim", type=int)
    p.add_argument("--cube", type=int)
    p.add_argument("--vertex")
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strong", action="store_true")
    p.set_defaults(fn=cmd_gen)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CaseNotCovered as e:
        print(f"case not covered: {e} trace={e.trace}", file=sys.stderr)
        return 3
    except (ValueError, CubelinkError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
