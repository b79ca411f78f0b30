"""Finite probability spaces mod p, measure-preserving maps, information loss.

A space is a finite labelled set with a distribution mod p.  A map f is
measure-preserving when every codomain weight is the sum of the weights in
its fibre.  The information loss of f is H(domain) - H(codomain); it
vanishes on isomorphisms, adds under composition, and is affine under
convex combination of maps.
"""

from .distributions import ModDist, ModMeasure, entropy, entropy_measure
from .errors import (
    CompositionMismatch,
    ModulusMismatch,
    NotMeasurePreserving,
    ParseError,
    UnknownLabel,
)
from .modular import PrimeModulus, Residue

TERMINAL_LABEL = "*"


class FinProbSpace:
    """A finite set of distinct labels carrying a distribution mod p."""

    __slots__ = ("labels", "dist")

    def __init__(self, labels, dist: ModDist):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        if len(labels) != len(dist):
            raise ValueError(f"{len(labels)} labels but {len(dist)} probabilities")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", dist)

    def __setattr__(self, name, val):
        raise AttributeError("FinProbSpace is immutable")

    @property
    def p(self) -> PrimeModulus:
        return self.dist.p

    def weight(self, label) -> Residue:
        try:
            return self.dist[self.labels.index(label)]
        except ValueError:
            raise UnknownLabel(label) from None

    def __eq__(self, other):
        return (
            isinstance(other, FinProbSpace)
            and self.labels == other.labels
            and self.dist == other.dist
        )

    def __hash__(self):
        return hash((self.labels, self.dist))

    def __repr__(self):
        return f"FinProbSpace({self.labels}, {self.dist})"


class MPMap:
    """A measure-preserving map between finite probability spaces mod p.

    Construct through make_map, which checks the fibre-sum condition.
    """

    __slots__ = ("domain", "codomain", "mapping")

    def __init__(self, domain: FinProbSpace, codomain: FinProbSpace, mapping: dict):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "mapping", dict(mapping))

    def __setattr__(self, name, val):
        raise AttributeError("MPMap is immutable")

    def __call__(self, label):
        return self.mapping[label]

    def fibre(self, codomain_label) -> tuple:
        return tuple(y for y in self.domain.labels if self.mapping[y] == codomain_label)

    def is_isomorphism(self) -> bool:
        return len(set(self.mapping.values())) == len(self.codomain.labels) and len(
            self.domain.labels
        ) == len(self.codomain.labels)

    def __eq__(self, other):
        return (
            isinstance(other, MPMap)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.mapping == other.mapping
        )

    def __repr__(self):
        return f"MPMap({self.domain.labels} -> {self.codomain.labels})"


def make_map(domain: FinProbSpace, codomain: FinProbSpace, mapping) -> MPMap:
    """Validate and build a measure-preserving map.

    `mapping` must be total on the domain labels with values among the
    codomain labels, and every fibre must sum to the weight of its target.
    """
    if domain.p != codomain.p:
        raise ModulusMismatch("domain and codomain must share p")
    mapping = dict(mapping)
    for y in domain.labels:
        if y not in mapping:
            raise UnknownLabel(f"no image for domain label {y!r}")
    for y, x in mapping.items():
        if y not in domain.labels:
            raise UnknownLabel(f"{y!r} is not a domain label")
        if x not in codomain.labels:
            raise UnknownLabel(f"{x!r} is not a codomain label")
    p = domain.p
    for x in codomain.labels:
        fibre_sum = Residue(0, p)
        for y in domain.labels:
            if mapping[y] == x:
                fibre_sum = fibre_sum + domain.weight(y)
        expected = codomain.weight(x)
        if fibre_sum != expected:
            raise NotMeasurePreserving(x, expected.value, fibre_sum.value)
    return MPMap(domain, codomain, mapping)


def identity_map(space: FinProbSpace) -> MPMap:
    return MPMap(space, space, {y: y for y in space.labels})


def info_loss(f: MPMap) -> Residue:
    """L(f) = H(domain) - H(codomain)."""
    return entropy(f.domain.dist) - entropy(f.codomain.dist)


def info_loss_conditional(f: MPMap) -> Residue:
    """The fibrewise form: sum over x with pi_x != 0 of pi_x * H(fibre / pi_x).

    Agrees with info_loss whenever every zero-weight codomain point carries
    an all-zero fibre.  Mod p, a fibre over a zero-weight point may hold
    nonzero weights that cancel; the skipped fibres then contribute
    conditional_defect(f), and in general

        info_loss(f) = info_loss_conditional(f) + conditional_defect(f).
    """
    total = Residue(0, f.domain.p)
    for x in f.codomain.labels:
        pi_x = f.codomain.weight(x)
        if pi_x.value == 0:
            continue
        inv = pi_x.inverse()
        fibre_dist = ModDist(f.domain.p, tuple(f.domain.weight(y) * inv for y in f.fibre(x)))
        total = total + pi_x * entropy(fibre_dist)
    return total


def conditional_defect(f: MPMap) -> Residue:
    """Homogeneous entropy of the fibres sitting over zero-weight points.

    Zero whenever those fibres carry only zero weights, which is the case
    where the conditional form of the loss is exact.
    """
    total = Residue(0, f.domain.p)
    for x in f.codomain.labels:
        if f.codomain.weight(x).value == 0:
            fibre = ModMeasure(f.domain.p, tuple(f.domain.weight(y) for y in f.fibre(x)))
            total = total + entropy_measure(fibre)
    return total


def compose_maps(g: MPMap, f: MPMap) -> MPMap:
    """The composite g o f; requires codomain(f) = domain(g) exactly."""
    if f.codomain != g.domain:
        raise CompositionMismatch("codomain of the first map must equal domain of the second")
    mapping = {y: g.mapping[f.mapping[y]] for y in f.domain.labels}
    return MPMap(f.domain, g.codomain, mapping)


def _combined_space(weights: ModDist, spaces) -> FinProbSpace:
    labels, values = [], []
    for i, (w, s) in enumerate(zip(weights.probs, spaces)):
        for y in s.labels:
            labels.append(f"{i}/{y}")
            values.append(w * s.weight(y))
    return FinProbSpace(labels, ModDist(weights.p, values))


def convex_combine_maps(weights: ModDist, maps) -> MPMap:
    """Disjoint-union map between convex combinations of the given maps.

    Labels of the combined spaces are namespaced "i/label" by the position
    of the weight.  The loss of the result is the weighted sum of losses.
    """
    maps = tuple(maps)
    if len(maps) != len(weights):
        raise ValueError(f"{len(weights)} weights for {len(maps)} maps")
    for f in maps:
        if f.domain.p != weights.p:
            raise ModulusMismatch("all maps must share p with the weights")
    domain = _combined_space(weights, [f.domain for f in maps])
    codomain = _combined_space(weights, [f.codomain for f in maps])
    mapping = {}
    for i, f in enumerate(maps):
        for y in f.domain.labels:
            mapping[f"{i}/{y}"] = f"{i}/{f.mapping[y]}"
    return make_map(domain, codomain, mapping)


def one_point_space(p: PrimeModulus) -> FinProbSpace:
    return FinProbSpace((TERMINAL_LABEL,), ModDist(p, (1,)))


def terminal_map(s: FinProbSpace) -> MPMap:
    """The unique map to the one-point space; its loss is the entropy of s."""
    target = one_point_space(s.p)
    return make_map(s, target, {y: TERMINAL_LABEL for y in s.labels})


# --- JSON wire format ---------------------------------------------------
# space: {"p": int, "labels": [str], "probs": [int]}
# map:   {"domain": space, "codomain": space, "mapping": {str: str}}


def space_to_dict(s: FinProbSpace) -> dict:
    return {"p": s.p.p, "labels": list(s.labels), "probs": list(s.dist.values())}


def _field(d, key: str, kind: type):
    """d[key], after checking that d is a JSON object whose `key` holds a `kind`."""
    if not isinstance(d, dict) or not isinstance(d.get(key), kind):
        raise ParseError(f"expected a JSON object with {key!r} of type {kind.__name__}")
    return d[key]


def space_from_dict(d: dict) -> FinProbSpace:
    p, labels, probs = _field(d, "p", int), _field(d, "labels", list), _field(d, "probs", list)
    if not all(isinstance(y, str) for y in labels):
        raise ParseError("labels must be strings")
    if not all(isinstance(v, int) for v in probs):
        raise ParseError("probs must be integers")
    return FinProbSpace(tuple(labels), ModDist(PrimeModulus(p), probs))


def map_to_dict(f: MPMap) -> dict:
    return {
        "domain": space_to_dict(f.domain),
        "codomain": space_to_dict(f.codomain),
        "mapping": {y: f.mapping[y] for y in f.domain.labels},
    }


def map_from_dict(d: dict) -> MPMap:
    domain, codomain = _field(d, "domain", dict), _field(d, "codomain", dict)
    mapping = _field(d, "mapping", dict)
    return make_map(space_from_dict(domain), space_from_dict(codomain), mapping)
