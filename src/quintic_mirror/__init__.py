"""Exact mirror-symmetry computations for the quintic threefold.

The package follows one pipeline and several satellites, all over exact
arithmetic (rationals, a nilpotent log ring, and the fifth cyclotomic
field): period series of the quintic's hypergeometric operator feed the
mirror map and the Yukawa coupling, whose q-expansion yields the curve
counts 2875, 609250, 317206375, ...; around it sit reflexive-polytope
duality, the transpose construction for gauged linear sigma models,
cohomology-level monodromy transforms, and the combinatorics of torus
fibrations.  The ``quintic-mirror`` entry point exposes everything on
the command line.

Import from the modules (``from quintic_mirror.enumerative import
build_mirror_map``); the package itself exports no names.
"""
