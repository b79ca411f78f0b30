"""Finite probability spaces mod p, measure-preserving maps, information loss.

A space is a finite labelled set with a distribution mod p.  A map f is
measure-preserving when every codomain weight is the sum of the weights in
its fibre.  The information loss of f is H(domain) - H(codomain); it
vanishes on isomorphisms, adds under composition, and is affine under
convex combination of maps.
"""

from .distributions import ModDist, _measure_entropy
from .errors import (
    ArityMismatch,
    CompositionMismatch,
    DuplicateLabel,
    ModulusMismatch,
    NotMeasurePreserving,
    ParseError,
    UnknownLabel,
)
from .modular import PrimeModulus, Residue

TERMINAL_LABEL = "*"


class FinProbSpace:
    """A finite set of distinct labels carrying a distribution mod p."""

    __slots__ = ("labels", "dist", "_index")

    def __init__(self, labels, dist: ModDist):
        labels = tuple(labels)
        index = {y: i for i, y in enumerate(labels)}
        if len(index) != len(labels):
            raise DuplicateLabel("labels must be distinct")
        if len(labels) != len(dist):
            raise ArityMismatch(f"{len(labels)} labels but {len(dist)} probabilities")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, val):
        raise AttributeError("FinProbSpace is immutable")

    @property
    def p(self) -> PrimeModulus:
        return self.dist.p

    def weight(self, label) -> Residue:
        try:
            return self.dist[self._index[label]]
        except KeyError:
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
    try:
        for y, x in mapping.items():
            if y not in domain._index:
                raise UnknownLabel(f"{y!r} is not a domain label")
            if x not in codomain._index:
                raise UnknownLabel(f"{x!r} is not a codomain label")
    except TypeError:  # an unhashable image, such as a list or an object from JSON
        raise UnknownLabel(f"{x!r} is not a codomain label") from None
    p = domain.p.p
    for x, (expected, fibre) in zip(codomain.labels, _fibres(domain, codomain, mapping)):
        if sum(fibre) % p != expected:
            raise NotMeasurePreserving(x, expected, sum(fibre) % p)
    return MPMap(domain, codomain, mapping)


def _fibres(domain: FinProbSpace, codomain: FinProbSpace, mapping) -> zip:
    """(pi_x, the domain weights over x) per codomain point x, in order, as ints.

    One pass over the domain builds every fibre.
    """
    fibres = [[] for _ in codomain.labels]
    index = codomain._index
    for y, w in zip(domain.labels, domain.dist.values()):
        fibres[index[mapping[y]]].append(w)
    return zip(codomain.dist.values(), fibres)


def identity_map(space: FinProbSpace) -> MPMap:
    return MPMap(space, space, {y: y for y in space.labels})


def info_loss(f: MPMap) -> Residue:
    """L(f) = H(domain) - H(codomain)."""
    p = f.domain.p
    h_domain = _measure_entropy(f.domain.dist.values(), p.p)
    return Residue(h_domain - _measure_entropy(f.codomain.dist.values(), p.p), p)


def info_loss_conditional(f: MPMap) -> Residue:
    """The fibrewise form: sum over x with pi_x != 0 of pi_x * H(fibre / pi_x).

    Agrees with info_loss whenever every zero-weight codomain point carries
    an all-zero fibre.  Mod p, a fibre over a zero-weight point may hold
    nonzero weights that cancel; the skipped fibres then contribute
    conditional_defect(f), and in general

        info_loss(f) = info_loss_conditional(f) + conditional_defect(f).
    """
    p, total = f.domain.p.p, 0
    for pi_x, fibre in _fibres(f.domain, f.codomain, f.mapping):
        if pi_x:
            inv = pow(pi_x, -1, p)
            total += pi_x * _measure_entropy([w * inv % p for w in fibre], p)
    return Residue(total, f.domain.p)


def conditional_defect(f: MPMap) -> Residue:
    """Homogeneous entropy of the fibres sitting over zero-weight points.

    Zero whenever those fibres carry only zero weights, which is the case
    where the conditional form of the loss is exact.
    """
    p = f.domain.p
    fibres = _fibres(f.domain, f.codomain, f.mapping)
    return Residue(sum(_measure_entropy(fibre, p.p) for pi_x, fibre in fibres if pi_x == 0), p)


def compose_maps(g: MPMap, f: MPMap) -> MPMap:
    """The composite g o f; requires codomain(f) = domain(g) exactly."""
    if f.codomain != g.domain:
        raise CompositionMismatch("codomain of the first map must equal domain of the second")
    mapping = {y: g.mapping[f.mapping[y]] for y in f.domain.labels}
    return MPMap(f.domain, g.codomain, mapping)


def _tagged(i: int, label):
    """Label `label` of the i-th summand: "i/label" for a string, else (i, label).

    Both forms are injective and cannot meet, so distinct labels such as 1
    and "1" stay distinct.
    """
    return f"{i}/{label}" if isinstance(label, str) else (i, label)


def _combined_space(weights: ModDist, spaces) -> FinProbSpace:
    labels, values, p = [], [], weights.p.p
    for i, (w, s) in enumerate(zip(weights.values(), spaces)):
        labels += [_tagged(i, y) for y in s.labels]
        values += [w * v % p for v in s.dist.values()]
    return FinProbSpace(labels, ModDist._canonical(weights.p, tuple(values)))  # sums to sum w = 1


def convex_combine_maps(weights: ModDist, maps) -> MPMap:
    """Disjoint-union map between convex combinations of the given maps.

    Labels of the combined spaces are namespaced by the position i of the
    weight: "i/label" for a string label, the pair (i, label) for any
    other.  The loss of the result is the weighted sum of losses.
    """
    maps = tuple(maps)
    if len(maps) != len(weights):
        raise ArityMismatch(f"{len(weights)} weights for {len(maps)} maps")
    for f in maps:
        if f.domain.p != weights.p:
            raise ModulusMismatch("all maps must share p with the weights")
    domain = _combined_space(weights, [f.domain for f in maps])
    codomain = _combined_space(weights, [f.codomain for f in maps])
    mapping = {}
    for i, f in enumerate(maps):
        for y in f.domain.labels:
            mapping[_tagged(i, y)] = _tagged(i, f.mapping[y])
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
