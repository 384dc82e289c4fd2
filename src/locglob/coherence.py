"""Coherence predicates and empirical checkers for the structural
statements about sections and their globalisations.

Each checker evaluates a hypothesis and a conclusion on one concrete
instance and reports both, with a machine-readable certificate when the
hypothesis holds and the conclusion fails. A counterexample is a
reported outcome, never an exception: on finite spaces one of the
checked statements does fail, and the bundled fixtures pin that down.
"""

from __future__ import annotations

from functools import cache, cached_property

from .errors import InvariantViolationError, ResourceLimitError, ValidationError
from .groupoids import (WideSubgroupoid, _generated_components,
                        restrict_wide, transitivity_components)
from .sections import (Atlas, Germ, LocalSubgroupoid, _loc_arguments, glob,
                       loc, restrict_section, section_from_atlas)
from .spaces import (FiniteSpace, _Frozen, _set, connected_components,
                     count_opens, enumerate_opens, generate_topology,
                     label_key, open_label_lists, sorted_labels)


class CoherenceReport(_Frozen):
    """Comparison of a section with the germs of its globalisation.

    coherent: the section sits below loc(glob(section)) pointwise.
    globally_coherent: the two agree at every point.
    witnesses: (point, section germ, globalised germ) wherever the germs
    differ; nonempty exactly when some flag is false or the containment
    is strict somewhere.
    """

    _fields = ("coherent", "globally_coherent", "witnesses")

    def __init__(self, coherent, globally_coherent, witnesses):
        _set(self, "coherent", coherent)
        _set(self, "globally_coherent", globally_coherent)
        _set(self, "witnesses", witnesses)


class TheoremReport(_Frozen):
    """Outcome of one checker run on one instance. `details` is built by
    the zero-argument `build_details` on first read and then kept, so a
    caller that reads only `status` builds none of it."""

    _fields = ("theorem", "hypothesis_holds", "conclusion_holds",
               "counterexample", "build_details")

    def __init__(self, theorem, hypothesis_holds, conclusion_holds,
                 counterexample, build_details=dict):
        _set(self, "theorem", theorem)
        _set(self, "hypothesis_holds", hypothesis_holds)
        _set(self, "conclusion_holds", conclusion_holds)
        _set(self, "counterexample", counterexample)
        _set(self, "build_details", build_details)
        expected = self.hypothesis_holds and not self.conclusion_holds
        if (self.counterexample is not None) != expected:
            raise InvariantViolationError(
                "certificate must be present exactly when the hypothesis "
                "holds and the conclusion fails")

    @property
    def status(self) -> str:
        if not self.hypothesis_holds:
            return "vacuous"
        return "pass" if self.conclusion_holds else "counterexample"

    @cached_property
    def details(self) -> dict:
        return self.build_details()

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "status": self.status,
            "hypothesis_holds": self.hypothesis_holds,
            "conclusion_holds": self.conclusion_holds,
            "counterexample": self.counterexample,
            "details": self.details,
        }


def coherence_report(section: LocalSubgroupoid, *,
                     globalised=None) -> CoherenceReport:
    """`globalised`, if given, must be glob(section): a caller that holds
    it already saves closing the germs again."""
    # both germs live over m(x), where `germ_leq` is arrow-set inclusion
    if globalised is None:
        globalised = glob(section)
    coherent = True
    witnesses = []
    for x in sorted_labels(section.space.points):
        mine = section.germs[x]
        m = mine.rep.base
        theirs = globalised.arrows & section.parent.arrows_within(m)
        coherent &= mine.rep.arrows <= theirs
        if mine.rep.arrows != theirs:
            witnesses.append((x, mine, Germ(x, restrict_wide(globalised, m))))
    return CoherenceReport(coherent, not witnesses, tuple(witnesses))


def is_totally_coherent(section: LocalSubgroupoid,
                        max_opens: int | None = None):
    """(flag, first failing open or None): is the restriction of the
    section to every open set coherent? On a finite space it always is.

    Proof. Let s be a section and x a point. glob(s) is the closure of
    the union of the canonical representatives, so it contains rep(x),
    whose arrows all lie in m(x). Hence rep(x) = rep(x)|m(x) lies in
    glob(s)|m(x), the germ of loc(glob(s)) at x, and s <= loc(glob(s)):
    s is coherent. A restriction of s to an open set is again a section,
    so it is coherent too. The scan this answer replaces is kept as
    `oracle.totally_coherent_by_scan` and cross-checked in the tests.

    With no `max_opens` the open family is never listed. A caller that
    gives one gets `ResourceLimitError` on more opens than that.
    """
    if max_opens is not None:
        opens = count_opens(section.space)
        if opens > max_opens:
            raise ResourceLimitError(
                f"{opens} open sets exceeds the configured cap of {max_opens}")
    return True, None


def subgroupoid_coherence(space: FiniteSpace, wide: WideSubgroupoid):
    """(locally coherent, coherent) for a wide subgroupoid over the whole
    space: its germ section is coherent, which is the lemma of
    `is_totally_coherent`, and the subgroupoid equals the globalisation
    of its germ section."""
    return True, glob(loc(space, wide)) == wide


def foliation_space(section: LocalSubgroupoid, atlas: Atlas) -> FiniteSpace:
    """Refine the topology by the transitivity components of every chart
    of an atlas defining the section. The result is finer than the
    original space."""
    if section_from_atlas(atlas) != section:
        raise ValidationError("atlas does not define the given section")
    extras = []
    for _, sub in atlas.charts:
        extras.extend(transitivity_components(sub))
    return generate_topology(section.space, extras)


def _list_key(labels: list) -> tuple:
    return len(labels), [*map(str, labels)]


def _set_list(sets) -> list:
    """`[sorted_labels(s) for s in sorted_sets(sets)]`, sorting each set
    once: the stable sort on (size, labels as text) keeps ties in the
    order of `sets`, as `sorted_sets` does."""
    lists = [sorted_labels(s) for s in sets]
    lists.sort(key=_list_key)
    return lists


def _open_cover(space: FiniteSpace, cover) -> list:
    cover_sets = [frozenset(v) for v in cover]
    if not all(map(space.is_open, cover_sets)):
        raise ValidationError("cover members must be open sets")
    if frozenset().union(*cover_sets) != space.points:
        raise ValidationError("cover must cover the space")
    return cover_sets


def verify_component_clopenness(section: LocalSubgroupoid,
                                wide: WideSubgroupoid,
                                cover) -> TheoremReport:
    """Checked statement: when `section` is the germ section of `wide`,
    every transitivity component of the subgroupoid K generated by the
    restrictions of `wide` to an open cover is relatively open and
    relatively closed inside the component of `wide` containing it.

    Proof. Two objects share a component exactly when an arrow joins
    them. Let C be a component of K, inside the component D of H = `wide`
    (K <= H). Open: for x in C and y in m(x) & D, H has an arrow x -> y;
    the cover member V holding x is open, so it holds m(x), and the arrow
    lies in H|V <= K, putting y in C. Closed: a z in D - C with some w in
    m(z) & C would land in C the same way, so D - C is open in D. The
    component-by-component scan is
    `oracle.component_clopenness_by_scan`.

    K's components are read off its generators, the arrows of the H|V,
    without closing them: <S> and S link the same objects, as an
    identity, inverse or composite of arrows joins objects that its
    factors already link."""
    space, parent = section.space, wide.parent
    _loc_arguments(space, wide)
    if parent != section.parent or any(  # loc(wide), as arrow sets
            g.rep.arrows != wide.arrows & parent.arrows_within(g.rep.base)
            for g in section.germs.values()):
        raise ValidationError(
            "section must be the germ section of the wide subgroupoid")
    cover_sets = _open_cover(space, cover)
    seed = set()
    for v in cover_sets:
        seed |= wide.arrows & parent.arrows_within(v)
    components = _generated_components(parent, space.points, seed)
    return TheoremReport(
        "component-clopenness", True, True, None,
        lambda: {"cover": _set_list(cover_sets),
                 "components_checked": len(components)})


def _traces_connected(space: FiniteSpace, comps, w) -> bool:
    """Every nonempty trace c & w of a component c is connected; one
    with fewer than two points is, without a search."""
    return all(len(t) < 2 or len(connected_components(space, t)) < 2
               for t in (c & w for c in comps))


def verify_local_connectivity_coherence(space: FiniteSpace,
                                        wide: WideSubgroupoid) -> TheoremReport:
    """Checked statement: if every point has an open neighbourhood W such
    that the restriction of `wide` to W has connected transitivity
    components, then the germ section of `wide` is coherent.

    The minimal open neighbourhood is tried first, then every other open
    containing the point, in sorted order: the hypothesis is existential.
    Lemma: for H = `wide` and any W, the components of H|W are the
    nonempty traces C & W of H's components C. H|W is closed under
    composition, so u, v in W share one of its components iff an arrow of
    H|W joins them, that is, an arrow of H, as its ends lie in W: iff u
    and v share a component of H. So the search reads one partition and
    builds no restriction; its twin is `oracle.local_connectivity_by_scan`."""
    if wide.base != space.points:
        raise ValidationError(
            "checker needs a wide subgroupoid over the whole space")
    comps = transitivity_components(wide)
    opens = []  # the sorted open family, listed once some m(x) fails
    found = {}  # point -> its first neighbourhood, or None
    for x in sorted_labels(space.points):
        w = space.minimal_open(x)
        if not _traces_connected(space, comps, w):
            opens = opens or enumerate_opens(space)
            w = next((o for o in opens if x in o
                      and _traces_connected(space, comps, o)), None)
        found[x] = w

    def details():
        return {"neighbourhoods": {label_key(x): sorted_labels(w)
                                   for x, w in found.items() if w is not None},
                "points_without_neighbourhood":
                    [label_key(x) for x, w in found.items() if w is None]}
    # the conclusion is the total-coherence lemma (see
    # `is_totally_coherent`): every section on a finite space is coherent
    return TheoremReport("local-connectivity-coherence",
                         None not in found.values(), True, None, details)


def verify_connectivity_globalization(space: FiniteSpace,
                                      wide: WideSubgroupoid):
    """Two checked directions. Forward: connected transitivity components
    force the subgroupoid H to equal K = glob(loc(H)). Converse: if H = K
    and every component is closed, every component is connected.

    Proof of the forward direction. K <= H always. Two points u, v of one
    component with v in m(u) are joined by an arrow of H|m(u) <= K, and a
    connected component is linked by a chain of such pairs, so K joins
    x and y whenever H does. For a in H(x, y) take c in K(x, y); then
    a = c.(c^-1.a), composing left to right, with c^-1.a in H(y, y) <=
    H|m(y) <= K, so a lies in K.

    Proof of the converse. Split a component C into nonempty parts A and
    B, each open in C. K is generated by the arrows of the H|m(z); let
    one join u in A to v in B. As X - C is open, m(z) meets C only if z
    is in C; say z is in A (B is symmetric, with u). A is open in C, so
    m(z) & C <= A, yet v lies in m(z) & B. So no arrow of K = H joins A
    to B, and C is not one component.

    The components partition X, so all are closed iff all are open, which
    `all_closed` tests. Neither direction carries a certificate. With
    every component connected, the forward proof answers
    `equals_globalisation`, checked against the definition oracle by the
    tests; otherwise `subgroupoid_coherence` computes it, and the
    report's invariant raises if the converse proof were wrong."""
    if wide.base != space.points:
        raise ValidationError(
            "checker needs a wide subgroupoid over the whole space")
    comps = transitivity_components(wide)
    connected = _traces_connected(space, comps, space.points)
    closed = all(map(space.is_open, comps))
    equal = connected or subgroupoid_coherence(space, wide)[1]
    # one dict for both reports, as they share their details
    details = cache(lambda: {
        "components": _set_list(comps),
        "all_connected": connected,
        "all_closed": closed,
        "equals_globalisation": equal,
    })
    forward = TheoremReport("connectivity-globalization-forward",
                            connected, equal, None, details)
    converse = TheoremReport("connectivity-globalization-converse",
                             equal and closed, connected, None, details)
    return forward, converse


def verify_foliation_components(section: LocalSubgroupoid,
                                atlas: Atlas) -> TheoremReport:
    """Checked statement: for a coherent section (every section, by the
    lemma of `is_totally_coherent`), the transitivity components of its
    globalisation are connected components of the space refined by the
    chart components. A failing instance yields a certificate rather
    than an exception; the bundled fixtures include one such recorded
    counterexample.

    The statement fails on finite spaces in general, and holds when every
    chart component is connected. Let F be the foliated space, whose
    minimal neighbourhood m'(x) is m(x) met with every chart component
    holding x; rep(x) is the germ at x, the arrows inside m(x) of any
    chart through x.

    Lemma 1. Each connected component of F lies in one transitivity
    component of glob(s). For y in m'(x), the chart giving x its germ
    holds x and y in one component, so it has an arrow x -> y; both ends
    lie in m(x), so the arrow is in rep(x) <= glob(s). The links y in
    m'(x) generate the components of F.

    Lemma 2. A chart component C that is connected in X is connected in
    F and lies in one transitivity component of glob(s). C is linked by
    pairs a, b of C with b in m(a). The chart has an arrow a -> b inside
    m(a), which lies in rep(a) <= glob(s); every chart through a has germ
    rep(a) at a, so it holds a and b in one component, b is in m'(a),
    and the same chain links C in F.

    Theorem. If every transitivity component of every chart is connected
    in X, the statement holds. The components of glob(s) are read off
    the links of the rep(x) (below), and a link x' -> y' of rep(x) lies
    in one component of x's chart, which is connected in F by Lemma 2.
    So each component of glob(s) lies in one component of F, and Lemma 1
    gives the reverse inclusion.

    Exact criterion. The statement holds iff every transitivity
    component of every rep(x) lies in one connected component of F: "if"
    is the theorem's last step with this as its hypothesis, and "only
    if" holds as rep(x) <= glob(s). The tests check the criterion and
    the theorem against this checker on the 3,6 and 4,12 suites, the
    fixture and random atlases.

    glob(s) is generated by the germ representatives, so its components
    are read off them without closing: <S> and S link the same objects,
    as an identity, inverse or composite of arrows joins objects that
    its factors already link."""
    foliated = foliation_space(section, atlas)
    seed = set()
    for germ in section.germs.values():
        seed |= germ.rep.arrows
    glob_sets = _generated_components(
        section.parent, section.space.points, seed)
    fol_sets = connected_components(foliated, foliated.points)
    counterexample = None
    if not glob_sets <= fol_sets:
        # the first failing component and those meeting it, in `_set_list`
        # order: `min` and the stable sort keep ties in iteration order
        labels = min((sorted_labels(c) for c in glob_sets
                      if c not in fol_sets), key=_list_key)
        comp = frozenset(labels)
        meeting = [sorted_labels(c) for c in fol_sets
                   if not comp.isdisjoint(c)]
        meeting.sort(key=_list_key)
        counterexample = {"transitivity_component": labels,
                          "foliation_components_meeting_it": meeting}

    def details():
        return {"transitivity_components": _set_list(glob_sets),
                "foliation_components": _set_list(fol_sets),
                "foliation_opens": open_label_lists(foliated)}
    return TheoremReport("foliation-components", True,
                         counterexample is None, counterexample, details)


def verify_restriction_coherence(section: LocalSubgroupoid, cover,
                                 max_opens: int | None = None, *,
                                 globalised=None):
    """Two checked statements about restriction. First: a globally and
    totally coherent section stays globally coherent on every open set.
    Second: if the section is globally and totally coherent on each
    member of an open cover, it is totally coherent.

    The first conclusion is the section's own global coherence, so the
    statement never fails. Proof: for opens U <= V, glob(s|U) <=
    glob(s|V)|U, which is wide over U and holds each rep(y), y in U. So
    if s|V is globally coherent and x is in U, rep(x) <= glob(s|U)|m(x)
    <= glob(s|V)|m(x) = rep(x), the first step by the lemma of
    `is_totally_coherent`; take V = X. The open-by-open scan is
    `oracle.restriction_global_coherence_by_scan`.

    The second hypothesis holds on every cover member that is some m(x),
    for every section s (the minimal-cover lemma). Proof: for y in m(x),
    m(y) <= m(x), so by the gluing law rep(y) = rep(x)|m(y) <= rep(x).
    glob(s|m(x)) is the closure of these representatives, so it is
    rep(x), already closed, and its germ at y is rep(x)|m(y) = rep(y):
    s|m(x) is globally coherent. Every restriction is totally coherent
    by the lemma of `is_totally_coherent`, and its cap is implied by the
    cap on the whole section checked in the conclusion, since an open
    subspace has no more opens than the space. So members that are no
    m(x) are restricted and compared with their globalisation, and only
    if s is not globally coherent: if it is, so is each s|V by the first
    proof. The member-by-member scan is `oracle.cover_restrictions_by_scan`.
    A section that is not coherent breaks the same lemma, so it is a
    germ or closure bug and raises `InvariantViolationError`.
    `globalised`, if given, must be glob(section), as for
    `coherence_report`."""
    space = section.space
    cover_sets = _open_cover(space, cover)
    report = coherence_report(section, globalised=globalised)
    if not report.coherent:
        raise InvariantViolationError(
            "section is not coherent; germ canonicalisation is broken")
    # True by the total-coherence lemma, or ResourceLimitError past a cap
    total = is_totally_coherent(section, max_opens)[0]
    conc1 = report.globally_coherent
    first = TheoremReport("restriction-global-coherence", conc1 and total,
                          conc1, None,
                          lambda: {"opens_checked": count_opens(space)})

    minimal = {space.minimal_open(x) for x in space.points}
    hyp2 = conc1 or all(
        coherence_report(restrict_section(section, v)).globally_coherent
        for v in cover_sets if v not in minimal)
    second = TheoremReport("restriction-total-coherence", hyp2, total, None,
                           lambda: {"cover": _set_list(cover_sets)})
    return first, second
